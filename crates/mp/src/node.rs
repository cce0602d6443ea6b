//! The message-passing diner node: the paper's scheduling logic over a
//! fork-based exclusion core.
//!
//! §4 of the paper points at two transformation routes; the one realized
//! here follows its first suggestion — Chandy & Misra's *fork collection*
//! for the exclusion core (a unique token per edge; eat only while holding
//! every incident fork) — synchronized per link by the stabilizing
//! K-state handshake of [`crate::kstate`], with the paper's own
//! priority / dynamic-threshold / depth logic deciding when forks are
//! requested and granted:
//!
//! * a hungry node requests missing forks;
//! * a node grants a requested fork unless it is eating, or it is hungry
//!   *and* has priority (it is the edge's ancestor);
//! * `leave`: a hungry node whose cached ancestor is not thinking goes
//!   back to thinking (and thus grants) — dynamic threshold;
//! * `fixdepth`/`exit` on `depth > D` break priority cycles exactly as in
//!   the shared-memory program, over cached depths.
//!
//! Priority replicas are reconciled with a version counter bumped on each
//! yield (ties broken deterministically), and fork possession is
//! reconciled by the handshake (master wins double claims; master
//! regenerates a fork both sides lack). All node state is plain data —
//! the node is a pure state machine driven by [`NodeEvent`]s — so the
//! same logic runs under the deterministic [`crate::simnet::SimNet`] and
//! the threaded [`crate::runtime::ThreadRuntime`].

use diners_sim::fault::{restart_rng, Resurrection};
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::Phase;

use crate::kstate::{Handshake, Role};
use crate::message::LinkMsg;

/// Retransmission backoff cap, in ticks. A silent link is probed at
/// least this often, so a healed partition is rediscovered within a
/// bounded number of ticks.
const MAX_BACKOFF: u32 = 16;

/// Consecutive sequence-stale deliveries that force a receive-side
/// resync. A `recv_seq` corrupted to a value far ahead of the sender
/// would otherwise filter the link forever; after this many stale
/// drops in a row the receiver concludes its own cursor is the broken
/// side and adopts the incoming stream.
const RESYNC_AFTER: u8 = 16;

/// Static configuration of one node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeConfig {
    /// This node's id.
    pub id: ProcessId,
    /// Its neighbors (any order; order fixes link indices).
    pub neighbors: Vec<ProcessId>,
    /// The graph diameter `D`, known to every process (as in the paper).
    pub diameter: u32,
}

impl NodeConfig {
    /// The configuration of process `id` of `topo`: its neighbors in the
    /// topology's order and the topology's diameter.
    pub(crate) fn new(topo: &Topology, id: ProcessId) -> Self {
        NodeConfig {
            id,
            neighbors: topo.neighbors(id).to_vec(),
            diameter: topo.diameter(),
        }
    }
}

/// An input to the node state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeEvent {
    /// A message arrived from a neighbor.
    Deliver {
        /// The sending neighbor.
        from: ProcessId,
        /// The message.
        msg: LinkMsg,
    },
    /// A spontaneous (fairness) step: finish meals, retransmit, kick off
    /// idle links.
    Tick,
}

/// Per-link protocol state.
#[derive(Clone, Debug, PartialEq, Eq)]
struct LinkState {
    peer: ProcessId,
    hs: Handshake,
    has_fork: bool,
    /// We sent the fork and have not yet seen the peer's post-transfer
    /// state.
    transfer_pending: bool,
    peer_requested: bool,
    /// Replica of the shared priority variable (the edge's ancestor).
    /// The master's replica is authoritative; the slave's is a cache.
    ancestor: ProcessId,
    prio_ver: u32,
    /// Slave side: a local yield not yet serialized by the master,
    /// stamped with the replica version at yield time. The optimistic
    /// value is held until any strictly newer master write arrives.
    pending_yield: Option<u32>,
    peer_phase: Phase,
    peer_depth: u32,
    last_sent: Option<LinkMsg>,
    /// Sequence number stamped on the last freshly composed message.
    send_seq: u32,
    /// Sequence number of the last message that passed the freshness
    /// filter; only strictly newer messages (by wrapping distance) are
    /// processed, so duplicated and reordered deliveries degrade to
    /// losses — which the handshake already tolerates.
    recv_seq: u32,
    /// Consecutive sequence-stale deliveries (drives the forced resync).
    stale_run: u8,
    /// Current retransmission backoff interval, in ticks.
    retx_interval: u32,
    /// Ticks left before the next retransmission is due.
    retx_countdown: u32,
}

impl LinkState {
    fn is_master(&self, me: ProcessId) -> bool {
        me < self.peer
    }
}

/// The message-passing diner node.
#[derive(Clone, Debug)]
pub struct Node {
    cfg: NodeConfig,
    phase: Phase,
    depth: u32,
    needs: bool,
    links: Vec<LinkState>,
    meals: u64,
    /// Set when a meal begins; the meal ends at the next event.
    just_entered: bool,
    /// Observability: timer-driven re-sends of a link's last message.
    /// Not protocol state — transient corruption leaves these intact.
    retransmits: u64,
    /// Observability: stale-run resyncs (receive-cursor adoptions).
    resyncs: u64,
}

impl Node {
    /// A node in the legitimate initial state: thinking, depth 0, fork
    /// and priority at the lower endpoint of each edge.
    pub fn new(cfg: NodeConfig) -> Self {
        let links = cfg
            .neighbors
            .iter()
            .map(|&peer| {
                let master = cfg.id < peer;
                LinkState {
                    peer,
                    hs: Handshake::new(if master { Role::Master } else { Role::Slave }),
                    has_fork: master,
                    transfer_pending: false,
                    peer_requested: false,
                    ancestor: if master { cfg.id } else { peer },
                    prio_ver: 0,
                    pending_yield: None,
                    peer_phase: Phase::Thinking,
                    peer_depth: 0,
                    last_sent: None,
                    send_seq: 0,
                    recv_seq: 0,
                    stale_run: 0,
                    retx_interval: 1,
                    retx_countdown: 0,
                }
            })
            .collect();
        Node {
            cfg,
            phase: Phase::Thinking,
            depth: 0,
            needs: true,
            links,
            meals: 0,
            just_entered: false,
            retransmits: 0,
            resyncs: 0,
        }
    }

    /// A node rebuilt after a crash, its local state re-seeded per
    /// `state`: the initial state, the protocol state in `checkpoint`
    /// ([`Node::snapshot_bytes`] output), or arbitrary state drawn from
    /// [`restart_rng`]. A missing or malformed checkpoint degrades to a
    /// fresh reboot, which stabilization makes safe.
    pub(crate) fn restarted(
        cfg: NodeConfig,
        state: Resurrection,
        checkpoint: Option<&[u8]>,
    ) -> Self {
        let mut node = Node::new(cfg);
        match state {
            Resurrection::Fresh => {}
            Resurrection::Snapshot { .. } => {
                if let Some(raw) = checkpoint {
                    let _ = node.restore_bytes(raw);
                }
            }
            Resurrection::Arbitrary { seed } => node.corrupt(&mut restart_rng(seed)),
        }
        node
    }

    /// Timer-driven retransmissions performed so far (first sends on a
    /// link are not counted).
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Stale-run resyncs performed so far: deliveries adopted despite a
    /// non-fresh sequence number because `RESYNC_AFTER` consecutive
    /// stale messages proved our cursor was the corrupted side.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// This node's id.
    pub fn id(&self) -> ProcessId {
        self.cfg.id
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Current depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Completed meals.
    pub fn meals(&self) -> u64 {
        self.meals
    }

    /// Set the paper's `needs()` function value for this node.
    pub fn set_needs(&mut self, needs: bool) {
        self.needs = needs;
    }

    /// Fault-injection hook: overwrite the diner phase directly,
    /// bypassing every protocol rule. The protocol will fight the
    /// injection on the node's next turn, so experiments that need a
    /// *sustained* violation re-inject each step. Exists to build broken
    /// baselines for monitor-detection experiments; never used by the
    /// protocol itself.
    pub fn inject_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Whether this node currently holds the fork on the link to `peer`.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is not a neighbor.
    pub fn holds_fork(&self, peer: ProcessId) -> bool {
        self.link(peer).has_fork
    }

    /// The node's replica of the priority (ancestor) on the link to
    /// `peer`.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is not a neighbor.
    pub fn priority_replica(&self, peer: ProcessId) -> ProcessId {
        self.link(peer).ancestor
    }

    /// Corrupt the node's entire state (transient fault), deterministic
    /// in `rng`.
    pub fn corrupt(&mut self, rng: &mut rand::rngs::StdRng) {
        use rand::Rng;
        self.phase = match rng.gen_range(0..3) {
            0 => Phase::Thinking,
            1 => Phase::Hungry,
            _ => Phase::Eating,
        };
        self.depth = rng.gen_range(0..=self.cfg.diameter * 4 + 8);
        self.just_entered = false;
        let me = self.cfg.id;
        for l in &mut self.links {
            let role = if me < l.peer {
                Role::Master
            } else {
                Role::Slave
            };
            l.hs = Handshake::with_counter(role, rng.gen_range(0..crate::kstate::K));
            l.has_fork = rng.gen_bool(0.5);
            l.transfer_pending = false;
            l.peer_requested = rng.gen_bool(0.5);
            l.ancestor = if rng.gen_bool(0.5) { me } else { l.peer };
            l.prio_ver = rng.gen_range(0..8);
            l.pending_yield = if rng.gen_bool(0.25) {
                Some(rng.gen_range(0..8))
            } else {
                None
            };
            l.peer_phase = match rng.gen_range(0..3) {
                0 => Phase::Thinking,
                1 => Phase::Hungry,
                _ => Phase::Eating,
            };
            l.peer_depth = rng.gen_range(0..=self.cfg.diameter * 4 + 8);
            l.last_sent = None;
            l.send_seq = rng.gen::<u32>();
            l.recv_seq = rng.gen::<u32>();
            l.stale_run = rng.gen_range(0..RESYNC_AFTER);
            l.retx_interval = rng.gen_range(1..=MAX_BACKOFF);
            l.retx_countdown = rng.gen_range(0..=MAX_BACKOFF);
        }
    }

    /// Epoch reset for the link to a peer that crashed and was
    /// resurrected by the supervisor: restart the wrapping
    /// sequence-number exchange from zero, void any in-flight fork
    /// transfer, and re-arm the retransmission timer.
    ///
    /// Without this, a reborn peer's first messages (sequence numbers
    /// starting over from 1) look *stale* against our high `recv_seq`
    /// and are dropped for `RESYNC_AFTER` deliveries — so its first
    /// post-restart grant would be discarded as a duplicate and recovery
    /// would stall until the slow resync path kicks in. Unknown peers
    /// are ignored (a confused supervisor must not corrupt link state).
    pub fn peer_reborn(&mut self, peer: ProcessId) {
        if !self.cfg.neighbors.contains(&peer) {
            return;
        }
        let l = self.link_mut(peer);
        l.send_seq = 0;
        l.recv_seq = 0;
        l.stale_run = 0;
        // An in-flight transfer to the dead incarnation is void; clearing
        // it lets the master regenerate a fork the reboot lost.
        l.transfer_pending = false;
        // Force a fresh compose (current state, new sequence stream)
        // instead of retransmitting a pre-crash payload.
        l.last_sent = None;
        l.retx_interval = 1;
        l.retx_countdown = 0;
    }

    /// Serialize the node's *protocol* state (phase, depth, meals, per-
    /// link handshake/fork/priority replicas) for supervisor checkpoints.
    /// Transport state (sequence cursors, retransmission timers) is
    /// deliberately excluded: a reboot always starts a fresh wire epoch.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.links.len() * 20);
        out.push(phase_byte(self.phase));
        out.extend_from_slice(&self.depth.to_le_bytes());
        out.push(u8::from(self.needs));
        out.extend_from_slice(&self.meals.to_le_bytes());
        out.push(self.links.len() as u8);
        for l in &self.links {
            out.push(l.hs.counter());
            out.push(u8::from(l.has_fork));
            out.push(u8::from(l.peer_requested));
            out.push(u8::from(l.ancestor == self.cfg.id));
            out.extend_from_slice(&l.prio_ver.to_le_bytes());
            match l.pending_yield {
                Some(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                None => {
                    out.push(0);
                    out.extend_from_slice(&0u32.to_le_bytes());
                }
            }
            out.push(phase_byte(l.peer_phase));
            out.extend_from_slice(&l.peer_depth.to_le_bytes());
        }
        out
    }

    /// Restore protocol state from [`Node::snapshot_bytes`] output.
    /// Transport state is reset to the fresh-epoch values (matching the
    /// neighbors' [`Node::peer_reborn`] reset).
    ///
    /// # Errors
    ///
    /// Returns a description if the bytes are truncated, oversized, or
    /// shaped for a different neighbor count.
    pub fn restore_bytes(&mut self, raw: &[u8]) -> Result<(), String> {
        let mut cur = Cursor { raw, at: 0 };
        let phase = parse_phase(cur.u8()?)?;
        let depth = u32::from_le_bytes(cur.bytes4()?);
        let needs = cur.u8()? != 0;
        let meals = u64::from_le_bytes(cur.bytes8()?);
        let nlinks = cur.u8()? as usize;
        if nlinks != self.links.len() {
            return Err(format!(
                "snapshot has {nlinks} links, node has {}",
                self.links.len()
            ));
        }
        let me = self.cfg.id;
        let mut links = Vec::with_capacity(nlinks);
        for l in &self.links {
            let counter = cur.u8()?;
            if counter >= crate::kstate::K {
                return Err(format!("handshake counter {counter} out of range"));
            }
            let has_fork = cur.u8()? != 0;
            let peer_requested = cur.u8()? != 0;
            let ancestor_is_me = cur.u8()? != 0;
            let prio_ver = u32::from_le_bytes(cur.bytes4()?);
            let has_yield = cur.u8()? != 0;
            let yield_ver = u32::from_le_bytes(cur.bytes4()?);
            let peer_phase = parse_phase(cur.u8()?)?;
            let peer_depth = u32::from_le_bytes(cur.bytes4()?);
            let role = if me < l.peer {
                Role::Master
            } else {
                Role::Slave
            };
            links.push(LinkState {
                peer: l.peer,
                hs: Handshake::with_counter(role, counter),
                has_fork,
                transfer_pending: false,
                peer_requested,
                ancestor: if ancestor_is_me { me } else { l.peer },
                prio_ver,
                pending_yield: has_yield.then_some(yield_ver),
                peer_phase,
                peer_depth,
                last_sent: None,
                send_seq: 0,
                recv_seq: 0,
                stale_run: 0,
                retx_interval: 1,
                retx_countdown: 0,
            });
        }
        if cur.at != raw.len() {
            return Err("trailing bytes after snapshot".into());
        }
        self.phase = phase;
        self.depth = depth;
        self.needs = needs;
        self.meals = meals;
        self.just_entered = false;
        self.links = links;
        Ok(())
    }

    fn link(&self, peer: ProcessId) -> &LinkState {
        self.links
            .iter()
            .find(|l| l.peer == peer)
            .unwrap_or_else(|| panic!("{peer} is not a neighbor of {}", self.cfg.id))
    }

    fn link_mut(&mut self, peer: ProcessId) -> &mut LinkState {
        let id = self.cfg.id;
        self.links
            .iter_mut()
            .find(|l| l.peer == peer)
            .unwrap_or_else(|| panic!("{peer} is not a neighbor of {id}"))
    }

    /// Drive the state machine; returns the messages to send.
    pub fn handle(&mut self, event: NodeEvent) -> Vec<(ProcessId, LinkMsg)> {
        // Finish a meal begun at an earlier event.
        if self.phase == Phase::Eating && !self.just_entered {
            self.do_exit();
        }
        self.just_entered = false;

        match event {
            NodeEvent::Deliver { from, msg } => {
                if !self.cfg.neighbors.contains(&from) {
                    return Vec::new(); // stray message
                }
                let resynced = {
                    let l = self.link_mut(from);
                    // Any inbound traffic proves the peer reachable:
                    // restart the retransmission backoff so a live link
                    // converses at full speed.
                    l.retx_interval = 1;
                    l.retx_countdown = 0;
                    // Freshness filter: only messages strictly newer (by
                    // wrapping distance) than the last one seen pass, so
                    // duplicated, reordered and unequally delayed
                    // deliveries degrade to losses — which the handshake
                    // tolerates. Without this, a delayed message whose
                    // counter aliases mod K can replay a stale fork
                    // transfer and break exclusion. A long stale run
                    // means *our* cursor is the corrupted side: resync
                    // to the incoming stream.
                    let fresh = msg.seq.wrapping_sub(l.recv_seq) as i32 > 0;
                    if !fresh && l.stale_run < RESYNC_AFTER {
                        l.stale_run += 1;
                        return Vec::new();
                    }
                    l.recv_seq = msg.seq;
                    l.stale_run = 0;
                    !fresh
                };
                if resynced {
                    self.resyncs += 1;
                }
                if !self.link(from).hs.accepts(msg.k) {
                    // Duplicate / stale by alternation: ignore; ticks
                    // retransmit.
                    return Vec::new();
                }
                self.absorb(from, msg);
                self.progress();
                let reply = self.compose(from);
                vec![(from, reply)]
            }
            NodeEvent::Tick => {
                self.progress();
                let me_links: Vec<ProcessId> = self.links.iter().map(|l| l.peer).collect();
                let mut out = Vec::new();
                for peer in me_links {
                    let due = {
                        let l = self.link_mut(peer);
                        if l.retx_countdown > 0 {
                            l.retx_countdown -= 1;
                            false
                        } else {
                            true
                        }
                    };
                    if !due {
                        continue;
                    }
                    let msg = match self.link(peer).last_sent {
                        // Retransmit the exact previous message (same
                        // sequence number): the receiver drops it cold
                        // if the original already arrived.
                        Some(m) => {
                            self.retransmits += 1;
                            m
                        }
                        // First send on this link.
                        None => self.compose(peer),
                    };
                    // Back off exponentially (capped): a dead or
                    // partitioned link is probed ever more rarely, while
                    // any accepted inbound message resets the interval.
                    let l = self.link_mut(peer);
                    let next = (l.retx_interval * 2).min(MAX_BACKOFF);
                    l.retx_interval = next;
                    l.retx_countdown = next;
                    out.push((peer, msg));
                }
                out
            }
        }
    }

    /// Merge an accepted message into the link state.
    fn absorb(&mut self, from: ProcessId, msg: LinkMsg) {
        let me = self.cfg.id;
        let l = self.link_mut(from);
        l.hs.accept(msg.k);
        l.peer_phase = msg.phase;
        l.peer_depth = msg.depth;
        l.peer_requested = msg.fork_request;

        // Priority reconciliation: the master's replica is authoritative;
        // the slave yields by request so every write to the variable is
        // serialized at one end (concurrent symmetric yields cannot make
        // the replicas leapfrog and stably diverge).
        if l.is_master(me) {
            // Catch up a (corrupted) slave counter so our next broadcast
            // dominates, then apply any requested yield: the slave gives
            // the priority *to us*.
            if msg.prio_ver > l.prio_ver {
                l.prio_ver = msg.prio_ver;
            }
            if msg.yield_req && l.ancestor != me {
                l.ancestor = me;
                l.prio_ver = l.prio_ver.wrapping_add(1);
            }
        } else {
            // Adopt the master's value.
            if msg.prio_ver >= l.prio_ver {
                l.prio_ver = msg.prio_ver;
                l.ancestor = msg.ancestor;
            }
            // Our own yield stays applied optimistically (the value we
            // want is exactly what the master would write) until any
            // *strictly newer* master write arrives — our serialized
            // yield, or a master yield that landed after ours; both are
            // legal write orders. Without the version stamp a stale
            // broadcast would briefly hand the priority back and let us
            // overtake the master unfairly.
            if let Some(yielded_at) = l.pending_yield {
                if l.prio_ver > yielded_at {
                    l.pending_yield = None;
                } else {
                    l.ancestor = l.peer;
                }
            }
        }

        // Fork reconciliation.
        if msg.fork_transfer {
            l.has_fork = true;
            l.transfer_pending = false;
        } else {
            let was_pending = l.transfer_pending;
            l.transfer_pending = false;
            let master = l.is_master(me);
            match (l.has_fork, msg.has_fork) {
                // Double claim (corrupted state): master wins.
                (true, true) if !master => l.has_fork = false,
                // Fork lost (corrupted state): master regenerates,
                // unless our transfer is the reason the peer has not
                // claimed it yet.
                (false, false) if master && !was_pending => l.has_fork = true,
                _ => {}
            }
        }
    }

    /// Local guarded-command transitions over cached neighbor state.
    fn progress(&mut self) {
        let me = self.cfg.id;

        // leave (dynamic threshold): a non-thinking cached ancestor makes
        // a hungry node yield.
        if self.phase == Phase::Hungry
            && self
                .links
                .iter()
                .any(|l| l.ancestor == l.peer && l.peer_phase != Phase::Thinking)
        {
            self.phase = Phase::Thinking;
        }

        // join.
        if self.phase == Phase::Thinking
            && self.needs
            && self
                .links
                .iter()
                .all(|l| l.ancestor != l.peer || l.peer_phase == Phase::Thinking)
        {
            self.phase = Phase::Hungry;
        }

        // fixdepth (batched over descendants).
        let want = self
            .links
            .iter()
            .filter(|l| l.ancestor == me)
            .map(|l| l.peer_depth.saturating_add(1))
            .max()
            .unwrap_or(0);
        if want > self.depth {
            self.depth = want;
        }

        // exit on depth > D (cycle breaking).
        if self.depth > self.cfg.diameter {
            self.do_exit();
        }

        // enter: hungry, all forks, cached ancestors thinking, cached
        // descendants not eating.
        if self.phase == Phase::Hungry
            && self.links.iter().all(|l| l.has_fork)
            && self
                .links
                .iter()
                .all(|l| l.ancestor != l.peer || l.peer_phase == Phase::Thinking)
            && self
                .links
                .iter()
                .all(|l| l.ancestor != me || l.peer_phase != Phase::Eating)
        {
            self.phase = Phase::Eating;
            self.meals += 1;
            self.just_entered = true;
        }
    }

    /// The paper's `exit`: back to thinking, depth 0, yield every edge.
    ///
    /// On master links the yield is applied directly (and versioned); on
    /// slave links it is recorded and requested from the master, which
    /// serializes the write.
    fn do_exit(&mut self) {
        self.phase = Phase::Thinking;
        self.depth = 0;
        let me = self.cfg.id;
        for l in &mut self.links {
            if l.is_master(me) {
                if l.ancestor != l.peer {
                    l.ancestor = l.peer;
                    l.prio_ver = l.prio_ver.wrapping_add(1);
                }
            } else if l.ancestor != l.peer {
                // We want the *peer* (the master) to have priority:
                // apply locally at once (self-blocking, like the master's
                // own yield) and ask the master to serialize the write.
                l.ancestor = l.peer;
                l.pending_yield = Some(l.prio_ver);
            }
        }
    }

    /// Build the next message for the link to `peer`, deciding grants.
    fn compose(&mut self, peer: ProcessId) -> LinkMsg {
        let me = self.cfg.id;
        let phase = self.phase;
        let depth = self.depth;
        let l = self.link_mut(peer);

        let grant = l.has_fork
            && l.peer_requested
            && phase != Phase::Eating
            && (phase != Phase::Hungry || l.ancestor == l.peer);
        if grant {
            l.has_fork = false;
            l.transfer_pending = true;
            l.peer_requested = false;
        }
        l.send_seq = l.send_seq.wrapping_add(1);
        let msg = LinkMsg {
            k: l.hs.counter(),
            seq: l.send_seq,
            phase,
            depth,
            ancestor: l.ancestor,
            prio_ver: l.prio_ver,
            yield_req: !l.is_master(me) && l.pending_yield.is_some(),
            has_fork: l.has_fork,
            fork_transfer: grant,
            fork_request: phase == Phase::Hungry && !l.has_fork,
        };
        l.last_sent = Some(msg);
        msg
    }
}

fn phase_byte(p: Phase) -> u8 {
    match p {
        Phase::Thinking => 0,
        Phase::Hungry => 1,
        Phase::Eating => 2,
    }
}

fn parse_phase(b: u8) -> Result<Phase, String> {
    match b {
        0 => Ok(Phase::Thinking),
        1 => Ok(Phase::Hungry),
        2 => Ok(Phase::Eating),
        other => Err(format!("bad phase byte {other}")),
    }
}

/// Minimal bounds-checked byte reader for [`Node::restore_bytes`].
struct Cursor<'a> {
    raw: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn u8(&mut self) -> Result<u8, String> {
        let b = *self.raw.get(self.at).ok_or("truncated snapshot")?;
        self.at += 1;
        Ok(b)
    }

    fn bytes4(&mut self) -> Result<[u8; 4], String> {
        let s = self
            .raw
            .get(self.at..self.at + 4)
            .ok_or("truncated snapshot")?;
        self.at += 4;
        Ok(s.try_into().expect("slice of length 4"))
    }

    fn bytes8(&mut self) -> Result<[u8; 8], String> {
        let s = self
            .raw
            .get(self.at..self.at + 8)
            .ok_or("truncated snapshot")?;
        self.at += 8;
        Ok(s.try_into().expect("slice of length 8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Node, Node) {
        let a = Node::new(NodeConfig {
            id: ProcessId(0),
            neighbors: vec![ProcessId(1)],
            diameter: 1,
        });
        let b = Node::new(NodeConfig {
            id: ProcessId(1),
            neighbors: vec![ProcessId(0)],
            diameter: 1,
        });
        (a, b)
    }

    /// Deliver everything both nodes want to send until quiescence or the
    /// budget runs out; returns (a_meals, b_meals).
    fn ping_pong(a: &mut Node, b: &mut Node, events: usize) {
        let mut queue_ab: Vec<LinkMsg> = Vec::new();
        let mut queue_ba: Vec<LinkMsg> = Vec::new();
        for i in 0..events {
            // Alternate ticks and deliveries deterministically.
            if i % 7 == 0 {
                for (to, m) in a.handle(NodeEvent::Tick) {
                    assert_eq!(to, ProcessId(1));
                    queue_ab.push(m);
                }
            } else if i % 7 == 1 {
                for (to, m) in b.handle(NodeEvent::Tick) {
                    assert_eq!(to, ProcessId(0));
                    queue_ba.push(m);
                }
            } else if i % 2 == 0 && !queue_ab.is_empty() {
                let m = queue_ab.remove(0);
                for (_, r) in b.handle(NodeEvent::Deliver {
                    from: ProcessId(0),
                    msg: m,
                }) {
                    queue_ba.push(r);
                }
            } else if !queue_ba.is_empty() {
                let m = queue_ba.remove(0);
                for (_, r) in a.handle(NodeEvent::Deliver {
                    from: ProcessId(1),
                    msg: m,
                }) {
                    queue_ab.push(r);
                }
            }
            assert!(
                !(a.phase() == Phase::Eating && b.phase() == Phase::Eating),
                "neighbors must never both eat (event {i})"
            );
        }
    }

    #[test]
    fn initial_fork_and_priority_at_master() {
        let (a, b) = pair();
        assert!(a.holds_fork(ProcessId(1)));
        assert!(!b.holds_fork(ProcessId(0)));
        assert_eq!(a.priority_replica(ProcessId(1)), ProcessId(0));
        assert_eq!(b.priority_replica(ProcessId(0)), ProcessId(0));
    }

    #[test]
    fn two_nodes_share_the_fork_and_both_eat() {
        let (mut a, mut b) = pair();
        ping_pong(&mut a, &mut b, 2_000);
        assert!(a.meals() > 0, "a never ate");
        assert!(b.meals() > 0, "b never ate");
    }

    #[test]
    fn never_both_eating_from_corrupted_state() {
        for seed in 0..20 {
            let (mut a, mut b) = pair();
            let mut r = diners_sim::rng::rng(seed);
            a.corrupt(&mut r);
            b.corrupt(&mut r);
            // Allow a short stabilization prefix, then insist on
            // exclusion (checked inside ping_pong) and progress.
            let mut settle_a = a.clone();
            let mut settle_b = b.clone();
            ping_pong_no_check(&mut settle_a, &mut settle_b, 300);
            ping_pong(&mut settle_a, &mut settle_b, 2_000);
            assert!(
                settle_a.meals() + settle_b.meals() > 0,
                "seed {seed}: nobody ate after stabilization"
            );
        }
    }

    /// Like `ping_pong` but without the exclusion assertion (used for the
    /// stabilization prefix where transient violations are legal).
    fn ping_pong_no_check(a: &mut Node, b: &mut Node, events: usize) {
        let mut queue_ab: Vec<LinkMsg> = Vec::new();
        let mut queue_ba: Vec<LinkMsg> = Vec::new();
        for i in 0..events {
            if i % 7 == 0 {
                queue_ab.extend(a.handle(NodeEvent::Tick).into_iter().map(|(_, m)| m));
            } else if i % 7 == 1 {
                queue_ba.extend(b.handle(NodeEvent::Tick).into_iter().map(|(_, m)| m));
            } else if i % 2 == 0 && !queue_ab.is_empty() {
                let m = queue_ab.remove(0);
                queue_ba.extend(
                    b.handle(NodeEvent::Deliver {
                        from: ProcessId(0),
                        msg: m,
                    })
                    .into_iter()
                    .map(|(_, m)| m),
                );
            } else if !queue_ba.is_empty() {
                let m = queue_ba.remove(0);
                queue_ab.extend(
                    a.handle(NodeEvent::Deliver {
                        from: ProcessId(1),
                        msg: m,
                    })
                    .into_iter()
                    .map(|(_, m)| m),
                );
            }
        }
    }

    #[test]
    fn sated_node_grants_and_thinks() {
        let (mut a, mut b) = pair();
        a.set_needs(false);
        ping_pong(&mut a, &mut b, 2_000);
        assert_eq!(a.meals(), 0, "a never wanted to eat");
        assert!(b.meals() > 0, "b should eat freely");
        assert_eq!(a.phase(), Phase::Thinking);
    }

    #[test]
    fn stray_messages_are_ignored() {
        let (mut a, _) = pair();
        let mut r = diners_sim::rng::rng(1);
        let msg = LinkMsg::arbitrary(&mut r, ProcessId(9), ProcessId(0));
        let out = a.handle(NodeEvent::Deliver {
            from: ProcessId(9),
            msg,
        });
        assert!(out.is_empty());
    }

    #[test]
    fn tick_retransmits_with_capped_backoff() {
        let (mut a, _) = pair();
        let mut sends: Vec<(u32, LinkMsg)> = Vec::new();
        for t in 0..60u32 {
            for (_, m) in a.handle(NodeEvent::Tick) {
                sends.push((t, m));
            }
        }
        assert!(sends.len() >= 3, "a silent link must still be probed");
        assert!(
            sends.len() < 60,
            "backoff must suppress most retransmissions"
        );
        let gaps: Vec<u32> = sends.windows(2).map(|w| w[1].0 - w[0].0).collect();
        for w in gaps.windows(2) {
            assert!(
                w[1] >= w[0],
                "backoff gaps must be non-decreasing: {gaps:?}"
            );
        }
        assert!(
            gaps.iter().all(|&g| g <= MAX_BACKOFF + 1),
            "backoff must stay capped: {gaps:?}"
        );
        for w in sends.windows(2) {
            assert_eq!(
                w[0].1, w[1].1,
                "retransmission must repeat the exact payload"
            );
        }
    }

    #[test]
    fn backoff_resets_on_inbound_traffic() {
        let (mut a, mut b) = pair();
        // Grow a's backoff with silent ticks until it is deep in a gap.
        for _ in 0..20 {
            a.handle(NodeEvent::Tick);
        }
        let quiet: usize = (0..4).map(|_| a.handle(NodeEvent::Tick).len()).sum();
        assert_eq!(quiet, 0, "deep in backoff, ticks should be silent");
        // Hearing from the peer must reset the interval: the very next
        // tick retransmits.
        let msg = b.handle(NodeEvent::Tick).remove(0).1;
        a.handle(NodeEvent::Deliver {
            from: ProcessId(1),
            msg,
        });
        assert_eq!(
            a.handle(NodeEvent::Tick).len(),
            1,
            "inbound traffic must reset the backoff"
        );
    }

    #[test]
    fn duplicated_fork_transfer_is_dropped_as_stale() {
        let (mut a, mut b) = pair();
        a.set_needs(false);
        // Master opens the conversation; the hungry slave asks for the
        // fork; the sated master grants it.
        let m0 = a.handle(NodeEvent::Tick).remove(0).1;
        let req = b
            .handle(NodeEvent::Deliver {
                from: ProcessId(0),
                msg: m0,
            })
            .remove(0)
            .1;
        assert!(req.fork_request, "hungry slave should request the fork");
        let grant = a
            .handle(NodeEvent::Deliver {
                from: ProcessId(1),
                msg: req,
            })
            .remove(0)
            .1;
        assert!(grant.fork_transfer, "sated master should grant");
        let _ = b.handle(NodeEvent::Deliver {
            from: ProcessId(0),
            msg: grant,
        });
        assert!(b.holds_fork(ProcessId(0)));
        // The network duplicates the grant: the copy carries a stale
        // sequence number and must be ignored outright — a second
        // "transfer" of the same fork is how duplication would otherwise
        // corrupt the token count.
        let out = b.handle(NodeEvent::Deliver {
            from: ProcessId(0),
            msg: grant,
        });
        assert!(out.is_empty(), "duplicate grant must be dropped cold");
        assert!(b.holds_fork(ProcessId(0)));
    }

    #[test]
    fn post_restart_grant_is_not_dropped_as_stale() {
        // Build up high sequence numbers on both sides of the link.
        let (mut a, mut b) = pair();
        ping_pong(&mut a, &mut b, 700);
        // b crashes and is reborn fresh: its sequence stream restarts
        // from zero.
        let mut reborn = Node::new(NodeConfig {
            id: ProcessId(1),
            neighbors: vec![ProcessId(0)],
            diameter: 1,
        });
        let first = reborn.handle(NodeEvent::Tick).remove(0).1;
        assert_eq!(first.seq, 1, "fresh node opens a new wire epoch");
        // Without the epoch reset, a's high recv_seq classifies the
        // reborn peer's first message as a stale duplicate and drops it.
        let mut stale_a = a.clone();
        let out = stale_a.handle(NodeEvent::Deliver {
            from: ProcessId(1),
            msg: first,
        });
        assert!(
            out.is_empty(),
            "pre-fix behavior: first post-restart message dropped as stale"
        );
        assert_eq!(
            stale_a.link(ProcessId(1)).stale_run,
            1,
            "drop must be attributed to the freshness filter"
        );
        // With peer_reborn, the same message passes the freshness filter
        // — the reborn node is not poisoned by the old epoch.
        a.peer_reborn(ProcessId(1));
        a.handle(NodeEvent::Deliver {
            from: ProcessId(1),
            msg: first,
        });
        let l = a.link(ProcessId(1));
        assert_eq!(l.recv_seq, 1, "reset link must adopt the reborn stream");
        assert_eq!(l.stale_run, 0, "reborn stream is fresh, not stale");
        // And the pair converges back to service: the reborn node obtains
        // the fork and eats (transient noise is legal while the handshake
        // realigns, hence the unchecked prefix).
        ping_pong_no_check(&mut a, &mut reborn, 300);
        ping_pong(&mut a, &mut reborn, 2_000);
        assert!(reborn.meals() > 0, "reborn node never ate again");
    }

    #[test]
    fn peer_reborn_ignores_strangers() {
        let (mut a, _) = pair();
        let before = a.clone();
        a.peer_reborn(ProcessId(9));
        assert_eq!(format!("{before:?}"), format!("{a:?}"));
    }

    #[test]
    fn snapshot_round_trips_protocol_state() {
        let (mut a, mut b) = pair();
        ping_pong(&mut a, &mut b, 1_234);
        let raw = a.snapshot_bytes();
        let mut restored = Node::new(NodeConfig {
            id: ProcessId(0),
            neighbors: vec![ProcessId(1)],
            diameter: 1,
        });
        restored.restore_bytes(&raw).expect("snapshot restores");
        assert_eq!(restored.phase(), a.phase());
        assert_eq!(restored.depth(), a.depth());
        assert_eq!(restored.meals(), a.meals());
        assert_eq!(
            restored.holds_fork(ProcessId(1)),
            a.holds_fork(ProcessId(1))
        );
        assert_eq!(
            restored.priority_replica(ProcessId(1)),
            a.priority_replica(ProcessId(1))
        );
        // Transport state restarts at the fresh epoch: the first message
        // out carries sequence number 1.
        let msg = restored.handle(NodeEvent::Tick).remove(0).1;
        assert_eq!(msg.seq, 1, "restored node must open a fresh wire epoch");
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let (a, _) = pair();
        let raw = a.snapshot_bytes();
        let mut n = Node::new(NodeConfig {
            id: ProcessId(0),
            neighbors: vec![ProcessId(1)],
            diameter: 1,
        });
        assert!(n.restore_bytes(&raw[..raw.len() - 1]).is_err(), "truncated");
        let mut long = raw.clone();
        long.push(0);
        assert!(n.restore_bytes(&long).is_err(), "trailing bytes");
        let mut bad_phase = raw.clone();
        bad_phase[0] = 7;
        assert!(n.restore_bytes(&bad_phase).is_err(), "bad phase byte");
        // Wrong neighbor count.
        let mut wide = Node::new(NodeConfig {
            id: ProcessId(1),
            neighbors: vec![ProcessId(0), ProcessId(2)],
            diameter: 2,
        });
        assert!(wide.restore_bytes(&raw).is_err(), "link-count mismatch");
        // A failed restore must leave the node untouched.
        let fresh = Node::new(NodeConfig {
            id: ProcessId(0),
            neighbors: vec![ProcessId(1)],
            diameter: 1,
        });
        assert_eq!(format!("{n:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn exit_yields_priority_with_version_bump() {
        let (mut a, mut b) = pair();
        // Drive until a eats at least once, then check the replica.
        ping_pong(&mut a, &mut b, 500);
        assert!(a.meals() > 0 || b.meals() > 0);
        // After any meal by a, a's replica should have yielded at some
        // point; versions only grow.
        let _ = a.priority_replica(ProcessId(1));
    }
}
