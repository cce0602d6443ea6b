//! A deterministic simulated network for the message-passing diner.
//!
//! Reliable FIFO links (one queue per directed edge), a seeded scheduler
//! that interleaves deliveries and node ticks fairly at random, the same
//! process-fault vocabulary as the shared-memory engine (reusing
//! [`FaultPlan`], fired through the same [`FaultTimeline`]): benign
//! crash, malicious crash (the faulty node emits arbitrary messages for
//! a budget of turns, then halts), global transient corruption,
//! initially dead nodes, and arbitrary initial states — plus the full
//! *link*-fault vocabulary of
//! [`crate::adversary`]: loss, duplication, bounded delay, reordering,
//! healing partitions, and byzantine-adjacent corruption, all applied at
//! the send boundary by a seeded [`LinkAdversary`].

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::Rng;

use diners_sim::fault::{FaultKind, FaultPlan, FaultTimeline, Health, Resurrection};
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::rng;
use diners_sim::Phase;

use crate::adversary::{AdversaryPlan, Delivery, LinkAdversary, NetStats};
use crate::message::LinkMsg;
use crate::monitor::{GlobalCut, Monitor, MonitorConfig};
use crate::node::{Node, NodeConfig, NodeEvent};
use crate::snapshot::{SnapAgent, SnapStamp};
use crate::supervisor::{RestartPolicy, Supervisor, SupervisorAction};
use crate::vclock::{NetTracer, Stamp};

/// Bound on queued messages per link direction. Retransmission pile-up
/// and duplication storms beyond this are shed (the protocol tolerates
/// drops of duplicates); generous enough that delayed-but-undelivered
/// messages cannot crowd out fresh traffic within their delay bound.
const QUEUE_CAP: usize = 8;

/// A message in flight: queued on a link, deliverable once the network
/// step clock reaches `ready_at` (the adversary's bounded delay).
///
/// The causal stamp rides the *queued copy* rather than the wire struct
/// (`LinkMsg` stays `Copy` for the thread runtime): since every path a
/// message takes goes through a queue, stamping here is observationally
/// equivalent to stamping the message itself, and duplicated copies get
/// the distinct stamps they need.
#[derive(Clone, Debug)]
struct Queued {
    msg: LinkMsg,
    ready_at: u64,
    /// Vector-clock stamp (None when tracing is off).
    stamp: Option<Stamp>,
    /// Snapshot-plane color stamp (None when monitoring is off).
    snap: Option<SnapStamp>,
}

/// Spread of node record points within an epoch, in steps. Staggered
/// initiation deliberately exercises the implicit-marker (red-stamp)
/// path: already-recorded nodes send red traffic at still-white ones.
const STAGGER: u64 = 8;

/// Steps between marker retransmissions while an epoch is open. Loss of
/// a marker therefore delays completion by at most this much.
const MARKER_RESEND: u64 = 8;

/// Configuration for the in-sim monitoring plane
/// ([`SimNet::enable_monitor`]).
#[derive(Clone, Debug)]
pub struct MonitorSetup {
    /// Steps between the completion of one snapshot epoch and the
    /// initiation of the next.
    pub epoch_every: u64,
    /// Continuous-hunger SLO threshold fed to the [`Monitor`].
    pub slo_wait: u64,
    /// Retain every completed [`GlobalCut`] (tests; by default the
    /// plane keeps none).
    pub keep_cuts: bool,
}

impl Default for MonitorSetup {
    fn default() -> Self {
        MonitorSetup {
            epoch_every: 500,
            slo_wait: 20_000,
            keep_cuts: false,
        }
    }
}

/// A marker in flight on the shadow control plane.
#[derive(Clone, Copy, Debug)]
struct MarkerFlight {
    epoch: u64,
    ready_at: u64,
}

/// The monitoring side-car: snapshot agents, a shadow marker network
/// with its own link adversary, and the predicate monitor.
///
/// Observer-effect-freedom is structural: nothing here touches the
/// net's `rng`, its data queues, or its nodes mutably. Markers ride
/// shadow queues with the same 2-per-edge indexing as data traffic and
/// suffer faults from a *second* [`LinkAdversary`] running the same
/// plan on an independent stream.
struct MonitorPlane {
    setup: MonitorSetup,
    agents: Vec<SnapAgent>,
    markers: Vec<VecDeque<MarkerFlight>>,
    marker_adv: LinkAdversary,
    monitor: Monitor,
    /// Current (or next, when idle) epoch number.
    epoch: u64,
    active: bool,
    started_at: u64,
    /// Per-node scheduled record step for the open epoch.
    init_at: Vec<u64>,
    /// Step of each node's last marker broadcast in the open epoch.
    marker_sent_at: Vec<u64>,
    /// Markers currently in flight across all shadow queues (lets idle
    /// and marker-free active steps skip the queue scan).
    marker_count: usize,
    /// `Health::Live` bitmap as of the last monitor tick.
    live: Vec<bool>,
    next_epoch_at: u64,
    scratch: Vec<Delivery>,
    cuts: Vec<GlobalCut>,
}

/// A deterministic run of the message-passing diner over a topology.
pub struct SimNet {
    topo: Topology,
    nodes: Vec<Node>,
    /// `queues[2*e]` carries lo→hi traffic of edge `e`; `queues[2*e+1]`
    /// carries hi→lo.
    queues: Vec<VecDeque<Queued>>,
    health: Vec<Health>,
    /// The fault plan and the node checkpoints its snapshot restarts
    /// restore.
    faults: FaultTimeline<Vec<u8>>,
    adversary: LinkAdversary,
    /// Scratch buffer for adversary verdicts (avoids per-send allocation).
    deliveries: Vec<Delivery>,
    rng: StdRng,
    step: u64,
    /// Per node, the meals seen so far and the step at which the last
    /// one completed (`None` before the first).
    meals_seen: Vec<(u64, Option<u64>)>,
    violation_steps: u64,
    last_violation: Option<u64>,
    /// Adversary verdicts tallied at the send boundary.
    net_stats: NetStats,
    /// Deliveries discarded because a link queue was full.
    shed: u64,
    /// Network causal tracer (None = disabled; observer-effect-free — it
    /// never touches `rng`, the queues' contents or the nodes).
    tracer: Option<Box<NetTracer>>,
    /// The construction seed (supervisor watchdogs subseed from it).
    seed: u64,
    /// Heartbeat watchdog, when [`SimNet::supervise`] was called.
    supervisor: Option<Box<Supervisor>>,
    /// Snapshot + predicate monitoring side-car, when
    /// [`SimNet::enable_monitor`] was called.
    plane: Option<Box<MonitorPlane>>,
}

impl SimNet {
    /// Build a network in the legitimate initial state over a benign
    /// network (no link faults).
    pub fn new(topo: Topology, faults: FaultPlan, seed: u64) -> Self {
        Self::with_adversary(topo, faults, AdversaryPlan::none(), seed)
    }

    /// Build a network in the legitimate initial state, with `adversary`
    /// filtering every send. The adversary draws from its own random
    /// stream derived from `seed`, so runs are exactly reproducible from
    /// `(topology, faults, plan, seed)`.
    pub fn with_adversary(
        topo: Topology,
        faults: FaultPlan,
        adversary: AdversaryPlan,
        seed: u64,
    ) -> Self {
        let n = topo.len();
        let mut nodes: Vec<Node> = topo
            .processes()
            .map(|p| Node::new(NodeConfig::new(&topo, p)))
            .collect();
        let mut rng = rng::rng(rng::subseed(seed, 0x51E7));
        if faults.starts_arbitrary() {
            for node in &mut nodes {
                node.corrupt(&mut rng);
            }
        }
        let mut health = vec![Health::Live; n];
        for &p in faults.initially_dead_processes() {
            health[p.index()] = Health::Dead;
        }
        SimNet {
            queues: vec![VecDeque::new(); topo.edge_count() * 2],
            nodes,
            health,
            faults: FaultTimeline::new(faults),
            adversary: LinkAdversary::new(adversary, seed),
            deliveries: Vec::new(),
            rng,
            step: 0,
            meals_seen: vec![(0, None); n],
            violation_steps: 0,
            last_violation: None,
            net_stats: NetStats::default(),
            shed: 0,
            tracer: None,
            seed,
            supervisor: None,
            plane: None,
            topo,
        }
    }

    /// Attach the online monitoring plane: epoch-numbered consistent
    /// snapshots ([`crate::snapshot`]) assembled into [`GlobalCut`]s and
    /// evaluated by a [`Monitor`] (safety, liveness SLO, failure
    /// locality, cut-consistency self-check).
    ///
    /// Like tracing, monitoring is observer-effect-free: a monitored run
    /// is step-identical to an unmonitored twin. Markers travel a shadow
    /// control plane whose own [`LinkAdversary`] runs this net's plan on
    /// an independent random stream, so marker loss/duplication/reorder
    /// is exercised without perturbing data traffic.
    pub fn enable_monitor(&mut self, setup: MonitorSetup) {
        if self.plane.is_some() {
            return;
        }
        let n = self.topo.len();
        let monitor = Monitor::new(
            self.topo.clone(),
            MonitorConfig {
                slo_wait: setup.slo_wait,
            },
        );
        self.plane = Some(Box::new(MonitorPlane {
            // No members yet: `arm_epoch` names every live agent's set
            // before any agent records, so no stamp is red before then,
            // and set-up allocates only the vector clocks.
            agents: (0..n)
                .map(|i| SnapAgent::new(ProcessId(i), n, &[]))
                .collect(),
            markers: vec![VecDeque::new(); self.topo.edge_count() * 2],
            marker_adv: LinkAdversary::new(
                self.adversary.plan().clone(),
                rng::subseed(self.seed, 0x5AFE),
            ),
            monitor,
            epoch: 0,
            active: false,
            started_at: 0,
            init_at: vec![0; n],
            marker_sent_at: vec![0; n],
            marker_count: 0,
            live: self
                .health
                .iter()
                .map(|h| matches!(h, Health::Live))
                .collect(),
            next_epoch_at: self.step,
            scratch: Vec::new(),
            cuts: Vec::new(),
            setup,
        }));
    }

    /// The attached predicate monitor, if any.
    pub fn monitor(&self) -> Option<&Monitor> {
        self.plane.as_deref().map(|pl| &pl.monitor)
    }

    /// Every completed cut (empty unless [`MonitorSetup::keep_cuts`]).
    pub fn cuts(&self) -> &[GlobalCut] {
        self.plane.as_deref().map_or(&[], |pl| &pl.cuts)
    }

    /// Fault-injection hook: force node `p` into `phase` directly,
    /// bypassing the protocol. Used by experiments to build a *broken*
    /// baseline (e.g. two neighbors forced to eat) and measure how fast
    /// the monitor detects the violation.
    pub fn inject_phase(&mut self, p: ProcessId, phase: Phase) {
        self.nodes[p.index()].inject_phase(phase);
    }

    /// Attach a heartbeat watchdog: every non-dead node heartbeats each
    /// step, live nodes are checkpointed on the policy's cadence, and
    /// crashed nodes are resurrected per `policy` (capped exponential
    /// backoff, restart budget). The watchdog draws its jitter from a
    /// stream derived from the construction seed, so supervised runs
    /// stay exactly reproducible.
    pub fn supervise(&mut self, policy: RestartPolicy) {
        self.supervisor = Some(Box::new(Supervisor::new(
            self.topo.len(),
            policy,
            rng::subseed(self.seed, 0x50B5),
        )));
    }

    /// The attached watchdog, if any.
    pub fn supervisor(&self) -> Option<&Supervisor> {
        self.supervisor.as_deref()
    }

    /// Turn on vector-clock causal tracing (see [`crate::vclock`]).
    /// Send/recv/retransmit/resync events become spans; tracing never
    /// consumes network randomness, so a traced run is step-identical to
    /// an untraced one.
    pub fn enable_tracing(&mut self) {
        if self.tracer.is_none() {
            self.tracer = Some(Box::new(NetTracer::new(self.topo.len())));
        }
    }

    /// The attached network tracer, if any.
    pub fn tracer(&self) -> Option<&NetTracer> {
        self.tracer.as_deref()
    }

    /// Adversary verdicts observed so far (sends, drops, duplicates,
    /// delays, reorders, corruptions).
    pub fn net_stats(&self) -> NetStats {
        self.net_stats
    }

    /// Deliveries discarded because a link queue hit its capacity.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Total timer-driven retransmissions across all nodes.
    pub fn retransmits(&self) -> u64 {
        self.nodes.iter().map(Node::retransmits).sum()
    }

    /// Total stale-run resyncs across all nodes.
    pub fn resyncs(&self) -> u64 {
        self.nodes.iter().map(Node::resyncs).sum()
    }

    /// Make every link lossy: each sent message is independently dropped
    /// with probability `per_mille / 1000`. The protocol tolerates loss
    /// — retransmission ticks re-drive the handshake and the master
    /// regenerates lost fork tokens — at the cost of latency.
    ///
    /// Legacy shim: prefer configuring loss (and richer link faults) at
    /// construction time through [`SimNet::with_adversary`]; this setter
    /// merely overwrites the loss knob of the installed plan.
    ///
    /// # Panics
    ///
    /// Panics if `per_mille > 900` (a link that almost never delivers
    /// cannot make progress within test horizons).
    pub fn set_loss_per_mille(&mut self, per_mille: u32) {
        self.adversary.set_loss(per_mille);
    }

    /// The link-fault plan in force.
    pub fn adversary_plan(&self) -> &AdversaryPlan {
        self.adversary.plan()
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Steps (events) executed so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The phase of node `p`.
    pub fn phase_of(&self, p: ProcessId) -> Phase {
        self.nodes[p.index()].phase()
    }

    /// Whether node `p` has halted.
    pub fn is_dead(&self, p: ProcessId) -> bool {
        self.health[p.index()].is_dead()
    }

    /// All halted nodes.
    pub fn dead_processes(&self) -> Vec<ProcessId> {
        self.topo.processes().filter(|&p| self.is_dead(p)).collect()
    }

    /// Meals completed by `p` so far.
    pub fn meals_of(&self, p: ProcessId) -> u64 {
        self.nodes[p.index()].meals()
    }

    /// The step at which `p` last completed a meal, if it ever did: `p`
    /// ate at a step in `[since, step_count())` iff
    /// `last_meal(p) >= Some(since)`.
    pub fn last_meal(&self, p: ProcessId) -> Option<u64> {
        self.meals_seen[p.index()].1
    }

    /// Steps at which two non-dead neighbors were simultaneously eating.
    pub fn violation_steps(&self) -> u64 {
        self.violation_steps
    }

    /// The last step with an exclusion violation, if any.
    pub fn last_violation(&self) -> Option<u64> {
        self.last_violation
    }

    /// Direct access to a node (tests, experiments).
    pub fn node(&self, p: ProcessId) -> &Node {
        &self.nodes[p.index()]
    }

    /// Set the `needs()` value of one node.
    pub fn set_needs(&mut self, p: ProcessId, needs: bool) {
        self.nodes[p.index()].set_needs(needs);
    }

    /// Execute one event (fault, delivery or tick).
    pub fn step(&mut self) {
        self.apply_due_faults();
        self.supervisor_tick();

        // Candidate events: every queue with a ready (delay-expired)
        // message, plus one tick slot per active node.
        let mut candidates: Vec<Event> = Vec::new();
        for (qi, q) in self.queues.iter().enumerate() {
            if q.iter().any(|m| m.ready_at <= self.step) {
                candidates.push(Event::Deliver(qi));
            }
        }
        for p in self.topo.processes() {
            if !self.is_dead(p) {
                candidates.push(Event::Turn(p));
            }
        }
        if !candidates.is_empty() {
            let ev = candidates[self.rng.gen_range(0..candidates.len())];
            self.execute(ev);
        }

        // Exclusion monitor.
        let mut pairs = 0;
        for &(a, b) in self.topo.edges() {
            if self.phase_of(a) == Phase::Eating
                && self.phase_of(b) == Phase::Eating
                && (!self.is_dead(a) || !self.is_dead(b))
            {
                pairs += 1;
            }
        }
        if pairs > 0 {
            self.violation_steps += 1;
            self.last_violation = Some(self.step);
        }

        // Meals completed this step.
        for p in self.topo.processes() {
            let m = self.nodes[p.index()].meals();
            let (seen, last) = &mut self.meals_seen[p.index()];
            if *seen < m {
                *seen = m;
                *last = Some(self.step);
            }
        }

        self.monitor_tick();
        self.step += 1;
    }

    /// Drive the monitoring plane one step: membership changes abort an
    /// open epoch, due markers are delivered, idle planes arm the next
    /// epoch, open epochs record (staggered) and retransmit markers, and
    /// a fully completed epoch is assembled into a cut and evaluated.
    fn monitor_tick(&mut self) {
        let Some(mut pl) = self.plane.take() else {
            return;
        };
        let now = self.step;

        // Idle plane: nothing is recording and no markers are in flight,
        // so the only work left is arming the next epoch once the idle
        // interval elapses. Skipping the per-step membership and marker
        // scans here (and the per-send stamping, gated on `active` at
        // the send hook) is what keeps monitoring within T16's overhead
        // budget between rounds.
        if !pl.active {
            if now >= pl.next_epoch_at {
                pl.live = self
                    .health
                    .iter()
                    .map(|h| matches!(h, Health::Live))
                    .collect();
                self.arm_epoch(&mut pl, now);
            }
            self.plane = Some(pl);
            return;
        }

        // 1. A crash, malicious crash or rebirth mid-round would make
        // the cut span incarnations: abort, restart under a fresh epoch.
        let membership_changed = pl
            .live
            .iter()
            .zip(&self.health)
            .any(|(&l, h)| l != matches!(h, Health::Live));
        if membership_changed {
            for a in &mut pl.agents {
                a.abort();
            }
            for q in &mut pl.markers {
                q.clear();
            }
            pl.marker_count = 0;
            pl.monitor.on_abort();
            pl.active = false;
            pl.next_epoch_at = now + 1;
            for (l, h) in pl.live.iter_mut().zip(&self.health) {
                *l = matches!(h, Health::Live);
            }
            self.plane = Some(pl);
            return;
        }

        // 2. Deliver due markers (loss already applied at send time;
        // duplicates and stale epochs are idempotent at the agent). The
        // in-flight count lets the common nothing-in-flight step skip
        // the per-queue scan entirely.
        if pl.marker_count > 0 {
            for qi in 0..pl.markers.len() {
                if pl.markers[qi].is_empty() {
                    continue;
                }
                let (from, to) = self.queue_endpoints(qi);
                while let Some(pos) = pl.markers[qi].iter().position(|m| m.ready_at <= now) {
                    let mf = pl.markers[qi].remove(pos).expect("index in bounds");
                    pl.marker_count -= 1;
                    if pl.live[to.index()] {
                        pl.agents[to.index()].on_marker(from, mf.epoch, &self.nodes[to.index()]);
                    }
                }
            }
        }

        // 3. Drive the open epoch: staggered recording, marker
        // (re)transmission through the shadow adversary.
        for i in 0..pl.agents.len() {
            if !pl.live[i] {
                continue;
            }
            if !pl.agents[i].recorded() && now >= pl.init_at[i] {
                pl.agents[i].record(&self.nodes[i]);
            }
            // Markers go out the instant a node is recorded — no
            // matter whether its own schedule, a peer's marker, or a
            // red data stamp triggered the recording — and are
            // re-driven on a fixed cadence against marker loss.
            let due = pl.marker_sent_at[i] == u64::MAX
                || now.saturating_sub(pl.marker_sent_at[i]) >= MARKER_RESEND;
            if pl.agents[i].recorded() && due {
                pl.marker_sent_at[i] = now;
                for k in 0..pl.agents[i].members().len() {
                    let q = pl.agents[i].members()[k];
                    self.send_marker(&mut pl, ProcessId(i), q, now);
                }
            }
        }

        // 4. Completion: every live agent recorded and saw all markers.
        if pl
            .agents
            .iter()
            .enumerate()
            .all(|(i, a)| !pl.live[i] || a.is_complete())
        {
            let mut snaps = Vec::new();
            for (i, a) in pl.agents.iter_mut().enumerate() {
                if pl.live[i] {
                    if let Some(s) = a.take_completed() {
                        snaps.push(s);
                    }
                }
            }
            snaps.sort_by_key(|s| s.pid.index());
            let dead = (0..pl.live.len())
                .filter(|&i| !pl.live[i])
                .map(ProcessId)
                .collect();
            let cut = GlobalCut {
                epoch: pl.epoch,
                step: now,
                snaps,
                dead,
            };
            pl.monitor.observe_cut(&cut);
            if pl.setup.keep_cuts {
                pl.cuts.push(cut);
            }
            pl.active = false;
            pl.next_epoch_at = now + pl.setup.epoch_every;
            for q in &mut pl.markers {
                q.clear();
            }
            pl.marker_count = 0;
        }

        self.plane = Some(pl);
    }

    /// Open epoch `pl.epoch + 1`: every live agent is told the member
    /// set and given a staggered record point (the stagger is what
    /// exercises the red-stamp / implicit-marker paths).
    fn arm_epoch(&self, pl: &mut MonitorPlane, now: u64) {
        if !pl.live.iter().any(|&l| l) {
            return;
        }
        pl.epoch += 1;
        pl.active = true;
        pl.started_at = now;
        for i in 0..pl.agents.len() {
            if !pl.live[i] {
                continue;
            }
            let live = &pl.live;
            pl.agents[i].expect(
                pl.epoch,
                self.topo
                    .neighbors(ProcessId(i))
                    .iter()
                    .copied()
                    .filter(|q| live[q.index()]),
            );
            pl.init_at[i] = now + (i as u64 * 5 + pl.epoch) % STAGGER;
            pl.marker_sent_at[i] = u64::MAX;
        }
    }

    /// Launch one marker copy from `from` to `to` through the shadow
    /// adversary (which may drop, duplicate, delay or reorder it).
    fn send_marker(&self, pl: &mut MonitorPlane, from: ProcessId, to: ProcessId, now: u64) {
        pl.scratch.clear();
        let mut deliveries = std::mem::take(&mut pl.scratch);
        pl.marker_adv
            .apply(now, from, to, LinkMsg::probe(from), false, &mut deliveries);
        let e = self
            .topo
            .edge_between(from, to)
            .expect("marker peers are neighbors");
        let (lo, _) = self.topo.endpoints(e);
        let qi = e.index() * 2 + usize::from(from != lo);
        for d in &deliveries {
            if pl.markers[qi].len() >= QUEUE_CAP {
                continue; // shed; retransmission recovers
            }
            pl.marker_count += 1;
            let mf = MarkerFlight {
                epoch: pl.epoch,
                ready_at: now + 1 + d.delay,
            };
            let q = &mut pl.markers[qi];
            match d.reorder_key {
                Some(key) => {
                    let at = (key % (q.len() as u64 + 1)) as usize;
                    q.insert(at, mf);
                }
                None => q.push_back(mf),
            }
        }
        pl.scratch = deliveries;
    }

    /// Execute `steps` events.
    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step();
        }
    }

    fn apply_due_faults(&mut self) {
        while let Some((ev, checkpoint)) = self
            .faults
            .next_due(self.step, |p| self.nodes[p.index()].snapshot_bytes())
        {
            match ev.kind {
                FaultKind::Crash => self.health[ev.target.index()] = Health::Dead,
                FaultKind::MaliciousCrash { steps } => {
                    if !self.is_dead(ev.target) {
                        self.health[ev.target.index()] = if steps == 0 {
                            Health::Dead
                        } else {
                            Health::Byzantine { remaining: steps }
                        };
                    }
                }
                FaultKind::TransientGlobal => {
                    for node in &mut self.nodes {
                        node.corrupt(&mut self.rng);
                    }
                    for q in &mut self.queues {
                        q.clear();
                    }
                    // Refresh meal baselines: corruption does not change
                    // counters, but keep them consistent anyway.
                    for p in self.topo.processes() {
                        self.meals_seen[p.index()].0 = self.nodes[p.index()].meals();
                    }
                }
                FaultKind::TransientLocal => {
                    let node = &mut self.nodes[ev.target.index()];
                    node.corrupt(&mut self.rng);
                    self.meals_seen[ev.target.index()].0 = node.meals();
                }
                FaultKind::Restart { state } => self.revive(ev.target, state, checkpoint),
            }
        }
    }

    /// Drive the watchdog one step: heartbeats for every non-dead node,
    /// checkpoints on the policy cadence, and due restart actions.
    fn supervisor_tick(&mut self) {
        let now = self.step;
        let mut due: Vec<(ProcessId, Resurrection, Option<Vec<u8>>)> = Vec::new();
        if let Some(sup) = self.supervisor.as_deref_mut() {
            let snap_now =
                sup.policy().snapshot_every > 0 && now.is_multiple_of(sup.policy().snapshot_every);
            for (i, h) in self.health.iter().enumerate() {
                let p = ProcessId(i);
                // Byzantine nodes are (malignantly) active: they still
                // heartbeat, so the watchdog does not burn restart
                // budget on a process that is not yet restartable.
                if !h.is_dead() {
                    sup.heartbeat(now, p);
                }
                if snap_now && matches!(h, Health::Live) {
                    sup.store_snapshot(p, &self.nodes[i].snapshot_bytes());
                }
            }
            for a in sup.poll(now) {
                if let SupervisorAction::Restart { pid, state } = a {
                    let snap = match state {
                        Resurrection::Snapshot { .. } => sup.snapshot_of(pid),
                        _ => None,
                    };
                    due.push((pid, state, snap));
                }
            }
        }
        for (pid, state, snap) in due {
            self.revive(pid, state, snap);
        }
    }

    /// Resurrect a dead node with `state`-seeded local memory
    /// ([`Node::restarted`]). A no-op unless the target is
    /// [`Health::Dead`]: live and byzantine processes are still running
    /// and cannot be "restarted".
    ///
    /// The reboot is an *epoch boundary* on every incident link: both
    /// directions' in-flight traffic (addressed to, or sent by, the dead
    /// incarnation) is discarded, and both endpoints restart their
    /// sequence streams from zero ([`Node::peer_reborn`]), so the reborn
    /// node's first messages are not dropped as stale duplicates. A fork
    /// token lost with the dead incarnation is regenerated by the link
    /// master's reconciliation; whatever inconsistency resurrection
    /// introduces is a transient the algorithm stabilizes from.
    fn revive(&mut self, p: ProcessId, state: Resurrection, snapshot: Option<Vec<u8>>) {
        if !self.health[p.index()].is_dead() {
            return;
        }
        let node = Node::restarted(NodeConfig::new(&self.topo, p), state, snapshot.as_deref());
        self.health[p.index()] = Health::Live;
        self.meals_seen[p.index()].0 = node.meals();
        self.nodes[p.index()] = node;
        let neighbors = self.topo.neighbors(p).to_vec();
        for q in neighbors {
            self.nodes[q.index()].peer_reborn(p);
            let e = self
                .topo
                .edge_between(p, q)
                .expect("neighbors share an edge");
            self.queues[e.index() * 2].clear();
            self.queues[e.index() * 2 + 1].clear();
        }
    }

    fn execute(&mut self, ev: Event) {
        match ev {
            Event::Deliver(qi) => {
                let step = self.step;
                let q = &mut self.queues[qi];
                let idx = q
                    .iter()
                    .position(|m| m.ready_at <= step)
                    .expect("queue has a ready message");
                let queued = q.remove(idx).expect("index in bounds");
                let msg = queued.msg;
                let (from, to) = self.queue_endpoints(qi);
                match self.health[to.index()] {
                    // Dead/byzantine receivers record no recv span: the
                    // copy's causal line ends here (a byzantine node's
                    // outputs are arbitrary, not caused by its inputs).
                    Health::Dead => {} // dropped on the floor
                    Health::Byzantine { .. } => {
                        // A byzantine node's receive turn is also an
                        // arbitrary-output turn.
                        self.byzantine_turn(to);
                    }
                    Health::Live => {
                        if let (Some(tr), Some(stamp)) = (self.tracer.as_deref_mut(), &queued.stamp)
                        {
                            tr.on_recv(step, to, from, stamp);
                        }
                        // Snapshot bookkeeping runs *before* the node
                        // processes the message: a red stamp must force
                        // the recording first (see `crate::snapshot`).
                        if let (Some(pl), Some(snap)) = (self.plane.as_deref_mut(), &queued.snap) {
                            pl.agents[to.index()].on_deliver(
                                from,
                                &queued.msg,
                                snap,
                                &self.nodes[to.index()],
                            );
                        }
                        let resyncs_before = self
                            .tracer
                            .is_some()
                            .then(|| self.nodes[to.index()].resyncs());
                        let out = self.nodes[to.index()].handle(NodeEvent::Deliver { from, msg });
                        if let Some(before) = resyncs_before {
                            let delta = self.nodes[to.index()].resyncs() - before;
                            if delta > 0 {
                                if let Some(tr) = self.tracer.as_deref_mut() {
                                    tr.on_resync(step, to, delta);
                                }
                            }
                        }
                        for (peer, m) in out {
                            self.enqueue(to, peer, m);
                        }
                    }
                }
            }
            Event::Turn(p) => match self.health[p.index()] {
                Health::Dead => {}
                Health::Byzantine { .. } => self.byzantine_turn(p),
                Health::Live => {
                    let retransmits_before = self
                        .tracer
                        .is_some()
                        .then(|| self.nodes[p.index()].retransmits());
                    let out = self.nodes[p.index()].handle(NodeEvent::Tick);
                    if let Some(before) = retransmits_before {
                        let delta = self.nodes[p.index()].retransmits() - before;
                        if delta > 0 {
                            if let Some(tr) = self.tracer.as_deref_mut() {
                                tr.on_retransmit(self.step, p, delta);
                            }
                        }
                    }
                    for (peer, m) in out {
                        self.enqueue(p, peer, m);
                    }
                }
            },
        }
    }

    fn byzantine_turn(&mut self, p: ProcessId) {
        let neighbors: Vec<ProcessId> = self.topo.neighbors(p).to_vec();
        for q in neighbors {
            if self.rng.gen_bool(0.5) {
                let msg = LinkMsg::arbitrary(&mut self.rng, p, q);
                self.enqueue(p, q, msg);
            }
        }
        if let Health::Byzantine { remaining } = &mut self.health[p.index()] {
            *remaining -= 1;
            if *remaining == 0 {
                self.health[p.index()] = Health::Dead;
            }
        }
    }

    fn enqueue(&mut self, from: ProcessId, to: ProcessId, msg: LinkMsg) {
        let byzantine_adjacent = matches!(self.health[from.index()], Health::Byzantine { .. })
            || matches!(self.health[to.index()], Health::Byzantine { .. });
        self.deliveries.clear();
        let mut deliveries = std::mem::take(&mut self.deliveries);
        self.adversary.apply(
            self.step,
            from,
            to,
            msg,
            byzantine_adjacent,
            &mut deliveries,
        );
        self.net_stats.absorb(&msg, &deliveries);
        let e = self
            .topo
            .edge_between(from, to)
            .unwrap_or_else(|| panic!("{from} and {to} are not neighbors"));
        let (lo, _) = self.topo.endpoints(e);
        let dir = usize::from(from != lo);
        let qi = e.index() * 2 + dir;
        for d in &deliveries {
            if self.queues[qi].len() >= QUEUE_CAP {
                // Shed the pile-up; retransmission recovers.
                self.shed += 1;
                continue;
            }
            // Stamp each surviving copy (duplicates get distinct stamps;
            // adversary-dropped and shed copies never get one).
            let stamp = self
                .tracer
                .as_deref_mut()
                .map(|tr| tr.on_send(self.step, from, to));
            // Snapshot stamps only flow while an epoch is open. Between
            // rounds nothing records, so a stamp could neither trigger a
            // recording nor witness an inconsistency — and skipping the
            // per-copy clock clone is what keeps idle monitoring within
            // T16's overhead budget. Messages that straddle the arming
            // boundary arrive unstamped, i.e. white, which is always
            // safe (only *post-record* sends must be visibly red, and a
            // recorded sender necessarily knows the epoch).
            let snap = match self.plane.as_deref_mut() {
                Some(pl) if pl.active => Some(pl.agents[from.index()].on_send()),
                _ => None,
            };
            let queued = Queued {
                msg: d.msg,
                ready_at: self.step + d.delay,
                stamp,
                snap,
            };
            let q = &mut self.queues[qi];
            match d.reorder_key {
                // Overtake: splice in ahead of some earlier traffic.
                Some(key) => {
                    let at = (key % (q.len() as u64 + 1)) as usize;
                    q.insert(at, queued);
                }
                None => q.push_back(queued),
            }
        }
        self.deliveries = deliveries;
    }

    fn queue_endpoints(&self, qi: usize) -> (ProcessId, ProcessId) {
        let e = diners_sim::graph::EdgeId(qi / 2);
        let (lo, hi) = self.topo.endpoints(e);
        if qi.is_multiple_of(2) {
            (lo, hi)
        } else {
            (hi, lo)
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Event {
    Deliver(usize),
    Turn(ProcessId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everyone_eats_on_a_ring() {
        let mut net = SimNet::new(Topology::ring(5), FaultPlan::none(), 3);
        net.run(40_000);
        for p in net.topology().processes() {
            assert!(net.meals_of(p) > 0, "{p} never ate");
        }
        assert_eq!(net.violation_steps(), 0, "exclusion from legit start");
        let stats = net.net_stats();
        assert!(stats.sent > 0);
        assert_eq!(stats.dropped + stats.duplicated + stats.corrupted, 0);
    }

    #[test]
    fn net_stats_classify_adversary_verdicts() {
        let plan = AdversaryPlan::new()
            .loss(200)
            .duplication(200)
            .delay(200, 3);
        let mut net = SimNet::with_adversary(Topology::ring(4), FaultPlan::none(), plan, 9);
        net.run(20_000);
        let stats = net.net_stats();
        assert!(stats.sent > 0);
        assert!(stats.dropped > 0, "{stats:?}");
        assert!(stats.duplicated > 0, "{stats:?}");
        assert!(stats.delayed > 0, "{stats:?}");
        assert_eq!(stats.corrupted, 0, "no byzantine node, so no corruption");
        assert!(
            net.retransmits() > 0,
            "a lossy link must trigger retransmissions"
        );
    }

    #[test]
    fn exclusion_recovers_from_arbitrary_states() {
        for seed in 0..5 {
            let mut net = SimNet::new(
                Topology::ring(4),
                FaultPlan::new().from_arbitrary_state(),
                seed,
            );
            net.run(60_000);
            // Violations may occur early; they must stop.
            if let Some(last) = net.last_violation() {
                assert!(
                    last < 20_000,
                    "seed {seed}: violation at {last} long after stabilization"
                );
            }
            let total: u64 = net.topology().processes().map(|p| net.meals_of(p)).sum();
            assert!(total > 0, "seed {seed}: nobody ate");
        }
    }

    #[test]
    fn crash_contains_damage() {
        let mut net = SimNet::new(
            Topology::line(6),
            FaultPlan::new().malicious_crash(500, 0, 8),
            7,
        );
        net.run(20_000);
        let since = net.step_count();
        net.run(60_000);
        assert!(net.is_dead(ProcessId(0)));
        // Distant nodes keep eating.
        for p in [3, 4, 5] {
            assert!(
                net.last_meal(ProcessId(p)) >= Some(since),
                "p{p} starved though far from the crash"
            );
        }
    }

    #[test]
    fn transient_fault_is_absorbed() {
        let mut net = SimNet::new(
            Topology::ring(4),
            FaultPlan::new().transient_global(5_000),
            11,
        );
        net.run(60_000);
        if let Some(last) = net.last_violation() {
            assert!(last < 25_000, "violation at {last} long after transient");
        }
        assert!(
            net.topology()
                .processes()
                .any(|p| net.last_meal(p) >= Some(30_000)),
            "service resumed after the transient"
        );
    }

    #[test]
    fn lossy_links_slow_but_do_not_break_the_protocol() {
        for per_mille in [100, 300] {
            let mut net = SimNet::with_adversary(
                Topology::ring(4),
                FaultPlan::none(),
                AdversaryPlan::new().loss(per_mille),
                21,
            );
            net.run(120_000);
            for p in net.topology().processes() {
                assert!(net.meals_of(p) > 0, "{p} starved at {per_mille}‰ loss");
            }
            assert_eq!(
                net.violation_steps(),
                0,
                "loss must never cause a safety violation ({per_mille}‰)"
            );
        }
    }

    #[test]
    fn legacy_loss_setter_still_works() {
        let mut net = SimNet::new(Topology::ring(4), FaultPlan::none(), 21);
        net.set_loss_per_mille(200);
        assert_eq!(net.adversary_plan().loss_per_mille(), 200);
        net.run(100_000);
        for p in net.topology().processes() {
            assert!(net.meals_of(p) > 0, "{p} starved via legacy setter");
        }
        assert_eq!(net.violation_steps(), 0);
    }

    #[test]
    fn lost_forks_are_regenerated() {
        // Very lossy line(2): fork transfers get dropped regularly; the
        // master's regeneration keeps both sides eating.
        let mut net = SimNet::with_adversary(
            Topology::line(2),
            FaultPlan::none(),
            AdversaryPlan::new().loss(500),
            30,
        );
        net.run(150_000);
        assert!(net.meals_of(ProcessId(0)) > 0);
        assert!(net.meals_of(ProcessId(1)) > 0);
        assert_eq!(net.violation_steps(), 0);
    }

    #[test]
    #[should_panic(expected = "loss rate too high")]
    fn excessive_loss_rate_is_rejected() {
        let mut net = SimNet::new(Topology::line(2), FaultPlan::none(), 0);
        net.set_loss_per_mille(950);
    }

    #[test]
    fn tracing_is_observer_effect_free_and_links_causality() {
        // Identical runs with and without the tracer, under an adversary
        // that exercises loss, duplication, delay and reorder.
        let plan = || {
            AdversaryPlan::new()
                .loss(150)
                .duplication(150)
                .delay(150, 4)
                .reorder(150)
        };
        let build = || {
            SimNet::with_adversary(
                Topology::ring(4),
                FaultPlan::new().malicious_crash(4_000, 1, 6),
                plan(),
                23,
            )
        };
        let mut plain = build();
        let mut traced = build();
        traced.enable_tracing();
        plain.run(30_000);
        traced.run(30_000);
        for p in plain.topology().processes() {
            assert_eq!(plain.meals_of(p), traced.meals_of(p), "{p} diverged");
            assert_eq!(plain.phase_of(p), traced.phase_of(p), "{p} diverged");
        }
        assert_eq!(plain.net_stats(), traced.net_stats());
        assert_eq!(plain.violation_steps(), traced.violation_steps());

        let tr = traced.tracer().expect("tracer attached");
        let spans = tr.spans();
        assert!(!spans.is_empty());
        let recvs = spans
            .iter()
            .filter(|s| matches!(s.op, crate::vclock::NetOp::Recv));
        let mut checked = 0;
        for r in recvs {
            // Every delivery descends from its send span, and the send
            // happened causally before it — across loss/dup/reorder.
            let parent = r.parent.expect("recv span has a send parent");
            let s = &spans[parent as usize];
            assert!(matches!(s.op, crate::vclock::NetOp::Send));
            assert_eq!((s.node, s.peer), (r.peer, r.node));
            assert!(tr.happens_before(parent, r.id), "send !< recv");
            checked += 1;
        }
        assert!(checked > 100, "only {checked} deliveries traced");
        // The lossy plan forces retransmissions; they must be spanned.
        assert!(
            spans
                .iter()
                .any(|s| matches!(s.op, crate::vclock::NetOp::Retransmit)),
            "no retransmit spans despite loss"
        );
    }

    #[test]
    fn monitored_healthy_run_cuts_consistently_and_quietly() {
        let mut net = SimNet::new(Topology::ring(5), FaultPlan::none(), 3);
        net.enable_monitor(MonitorSetup {
            epoch_every: 200,
            keep_cuts: true,
            ..MonitorSetup::default()
        });
        net.run(40_000);
        let cuts = net.cuts();
        assert!(cuts.len() > 50, "only {} epochs completed", cuts.len());
        for c in cuts {
            assert!(c.consistent(), "epoch {} inconsistent", c.epoch);
            assert_eq!(c.snaps.len(), 5, "epoch {} missing snaps", c.epoch);
        }
        let mon = net.monitor().expect("monitor attached");
        assert_eq!(mon.alerts(), &[], "healthy run must stay quiet");
        assert_eq!(mon.cuts(), cuts.len() as u64);
        // The staggered record points force the implicit-marker path;
        // meanwhile the diner keeps working underneath.
        for p in net.topology().processes() {
            assert!(net.meals_of(p) > 0, "{p} never ate while monitored");
        }
        assert_eq!(net.violation_steps(), 0);
    }

    #[test]
    fn injected_violation_is_caught_by_the_monitor() {
        let mut net = SimNet::new(Topology::ring(6), FaultPlan::none(), 8);
        net.enable_monitor(MonitorSetup {
            epoch_every: 50,
            ..MonitorSetup::default()
        });
        net.run(5_000);
        assert!(net.monitor().unwrap().alerts().is_empty());
        // Force a sustained neighbors-eating violation.
        for _ in 0..2_000 {
            net.inject_phase(ProcessId(0), Phase::Eating);
            net.inject_phase(ProcessId(1), Phase::Eating);
            net.step();
            if !net.monitor().unwrap().alerts().is_empty() {
                break;
            }
        }
        let alerts = net.monitor().unwrap().alerts();
        assert!(
            alerts
                .iter()
                .any(|a| matches!(a.kind, diners_sim::AlertKind::NeighborsEating { .. })),
            "violation never detected: {alerts:?}"
        );
    }

    #[test]
    fn initially_dead_node_is_inert() {
        let mut net = SimNet::new(Topology::line(3), FaultPlan::new().initially_dead(1), 2);
        net.run(20_000);
        assert_eq!(net.meals_of(ProcessId(1)), 0);
        assert!(net.is_dead(ProcessId(1)));
        // End nodes are beyond its forks' reach only if it died without
        // them; with the initial fork placement p0 (master of (0,1))
        // holds that fork, so p0 can still eat.
        assert!(net.meals_of(ProcessId(0)) > 0);
    }

    #[test]
    fn delayed_messages_wait_out_their_bound() {
        let mut net = SimNet::with_adversary(
            Topology::line(2),
            FaultPlan::none(),
            AdversaryPlan::new().delay(1000, 32),
            13,
        );
        net.run(80_000);
        assert!(net.meals_of(ProcessId(0)) > 0, "p0 starved under delay");
        assert!(net.meals_of(ProcessId(1)) > 0, "p1 starved under delay");
        assert_eq!(net.violation_steps(), 0, "delay broke exclusion");
    }

    #[test]
    fn partitioned_link_heals_and_service_resumes() {
        let mut net = SimNet::with_adversary(
            Topology::ring(4),
            FaultPlan::none(),
            AdversaryPlan::new().cut_link(0, 1, 5_000, 25_000),
            17,
        );
        net.run(25_000);
        let healed_at = net.step_count();
        net.run(60_000);
        assert_eq!(net.violation_steps(), 0, "partition broke exclusion");
        for p in net.topology().processes() {
            assert!(
                net.last_meal(p) >= Some(healed_at),
                "{p} starved after the partition healed"
            );
        }
    }

    #[test]
    fn plan_restart_resurrects_a_crashed_node() {
        let mut net = SimNet::new(
            Topology::ring(5),
            FaultPlan::new().crash(5_000, 2).restart_fresh(20_000, 2),
            3,
        );
        net.run(12_000);
        assert!(net.is_dead(ProcessId(2)), "crash did not land");
        let meals_dead = net.meals_of(ProcessId(2));
        net.run(80_000);
        assert!(!net.is_dead(ProcessId(2)), "restart did not land");
        assert!(
            net.meals_of(ProcessId(2)) > meals_dead,
            "reborn node never ate again"
        );
        // A restart is recovery, not a new fault: once the transients
        // settle, every node is in service.
        for p in net.topology().processes() {
            assert!(
                net.last_meal(p) >= Some(40_000),
                "{p} starved after recovery"
            );
        }
    }

    #[test]
    fn plan_snapshot_restart_restores_meal_counter() {
        // Checkpoint 1_000 steps before the restart fires — i.e. well
        // before the crash at 10_000 — so the reborn node resumes from
        // its pre-crash protocol state (meals included).
        let mut net = SimNet::new(
            Topology::ring(5),
            FaultPlan::new()
                .crash(10_000, 1)
                .restart_snapshot(10_500, 1, 1_000),
            9,
        );
        net.run(9_500);
        let meals_at_capture = net.meals_of(ProcessId(1));
        assert!(meals_at_capture > 0, "no meals before the checkpoint");
        net.run(70_000);
        assert!(!net.is_dead(ProcessId(1)));
        assert!(
            net.meals_of(ProcessId(1)) > meals_at_capture,
            "restored node must keep its checkpointed meals and add more"
        );
    }

    #[test]
    fn plan_arbitrary_restart_stabilizes() {
        for seed in 0..4 {
            let mut net = SimNet::new(
                Topology::line(4),
                FaultPlan::new()
                    .crash(5_000, 1)
                    .restart_arbitrary(15_000, 1, 1_000 + seed),
                seed,
            );
            net.run(40_000);
            let settled = net.step_count();
            net.run(60_000);
            assert!(!net.is_dead(ProcessId(1)));
            for p in net.topology().processes() {
                assert!(
                    net.last_meal(p) >= Some(settled),
                    "seed {seed}: {p} starved after arbitrary-state rebirth"
                );
            }
            assert_eq!(
                net.last_violation().map_or(0, |v| u64::from(v >= settled)),
                0,
                "seed {seed}: exclusion violated after stabilization window"
            );
        }
    }

    #[test]
    fn restart_of_a_live_node_is_a_no_op() {
        let mut a = SimNet::new(Topology::ring(4), FaultPlan::none(), 21);
        let mut b = SimNet::new(
            Topology::ring(4),
            FaultPlan::new().restart_fresh(3_000, 2),
            21,
        );
        a.run(20_000);
        b.run(20_000);
        for p in a.topology().processes() {
            assert_eq!(a.meals_of(p), b.meals_of(p), "{p} diverged");
            assert_eq!(a.phase_of(p), b.phase_of(p), "{p} phase diverged");
        }
    }

    #[test]
    fn supervisor_resurrects_a_crashed_node() {
        let mut net = SimNet::new(Topology::ring(5), FaultPlan::new().crash(8_000, 3), 5);
        net.supervise(RestartPolicy {
            probe_timeout: 200,
            base_backoff: 50,
            max_backoff: 800,
            jitter: 10,
            max_restarts: 4,
            snapshot_every: 500,
            resurrection: Resurrection::Fresh,
        });
        net.run(60_000);
        assert!(!net.is_dead(ProcessId(3)), "watchdog never revived p3");
        let sup = net.supervisor().expect("supervisor attached");
        assert_eq!(sup.restarts_of(ProcessId(3)), 1, "one crash, one restart");
        assert_eq!(sup.total_giveups(), 0);
        let since = net.step_count();
        net.run(40_000);
        for p in net.topology().processes() {
            assert!(
                net.last_meal(p) >= Some(since),
                "{p} starved after supervised recovery"
            );
        }
    }

    #[test]
    fn supervisor_snapshot_resurrection_restores_state() {
        let mut net = SimNet::new(Topology::ring(4), FaultPlan::new().crash(10_000, 2), 11);
        net.supervise(RestartPolicy {
            probe_timeout: 150,
            base_backoff: 40,
            max_backoff: 600,
            jitter: 5,
            max_restarts: 4,
            snapshot_every: 400,
            resurrection: Resurrection::Snapshot { age: 0 },
        });
        // The last checkpoint before the crash lands at step 9_600
        // (cadence 400); sample the meal counter exactly there.
        net.run(9_600);
        let meals_before_crash = net.meals_of(ProcessId(2));
        assert!(meals_before_crash > 0, "no meals before the crash");
        net.run(60_000);
        assert!(!net.is_dead(ProcessId(2)));
        assert!(
            net.meals_of(ProcessId(2)) >= meals_before_crash,
            "snapshot resurrection lost the checkpointed meal counter"
        );
        assert!(
            net.meals_of(ProcessId(2)) > meals_before_crash,
            "reborn node never ate again"
        );
    }

    #[test]
    fn supervisor_budget_exhaustion_abandons_a_crash_looping_node() {
        // Crash p1 over and over: every supervised rebirth is killed
        // again before it can be useful. The watchdog must spend its
        // budget and then abandon the node instead of thrashing forever.
        let mut plan = FaultPlan::new();
        for k in 0..40 {
            plan = plan.crash(2_000 + 1_500 * k, 0);
        }
        let mut net = SimNet::new(Topology::line(6), plan, 13);
        net.supervise(RestartPolicy {
            probe_timeout: 100,
            base_backoff: 30,
            max_backoff: 300,
            jitter: 5,
            max_restarts: 3,
            snapshot_every: 0,
            resurrection: Resurrection::Fresh,
        });
        net.run(80_000);
        let sup = net.supervisor().expect("supervisor attached");
        assert_eq!(sup.restarts_of(ProcessId(0)), 3, "budget is max_restarts");
        assert!(
            sup.abandoned(ProcessId(0)),
            "crash-looper must be abandoned"
        );
        assert_eq!(sup.total_giveups(), 1);
        assert!(net.is_dead(ProcessId(0)), "abandoned node stays dead");
        // Failure locality: distant nodes still get service.
        let since = net.step_count();
        net.run(40_000);
        for p in [3, 4, 5] {
            assert!(
                net.last_meal(ProcessId(p)) >= Some(since),
                "p{p} starved though far from the abandoned node"
            );
        }
    }
}
