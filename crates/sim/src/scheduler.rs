//! Schedulers (daemons) for the interleaving model.
//!
//! A computation in the paper's model is a *weakly fair* maximal sequence
//! of action executions: if an action is enabled in all but finitely many
//! states of an infinite computation it is executed infinitely often. The
//! engine offers the enabled action instances each step; a [`Scheduler`]
//! picks which one fires, either from the whole slice
//! ([`Scheduler::pick`]) or by rank from an [`EnabledView`] of the
//! engine's index ([`Scheduler::pick_from`]).
//!
//! Provided daemons:
//!
//! * [`RoundRobinScheduler`] — serves the next process at or after a
//!   cursor, rotating among each process's actions; weakly fair by
//!   construction.
//! * [`LeastRecentScheduler`] — always fires the enabled move that has gone
//!   longest without executing; strongly fair.
//! * [`RandomScheduler`] — uniform over enabled moves; weakly fair with
//!   probability 1. Picks by rank in O(log n).
//! * [`AdversarialScheduler`] — pursues a hostile policy but is forced by a
//!   fairness bound `B`: any move continuously enabled for `B` picks fires.
//! * [`ScriptedScheduler`] — replays an exact schedule (used to reproduce
//!   the paper's Figure 2 computation).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::Rng;

use crate::algorithm::{ActionId, Move};
use crate::enabled::EnabledView;
use crate::graph::ProcessId;
use crate::rng;

/// An enabled move together with how many consecutive steps (including the
/// current one) it has been continuously enabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnabledMove {
    /// The move.
    pub mv: Move,
    /// Continuous enabledness age, in steps (`1` = newly enabled).
    pub age: u64,
}

/// A daemon: picks which enabled move fires each step.
///
/// Both methods return an index into the enabled set, which is never
/// empty when they are called. The engine calls [`Scheduler::pick_from`]
/// with a view of its enabled index, whose rank `r` is the move at index
/// `r` of the from-scratch enumeration (process-major, each process in
/// [`crate::algorithm::action_instances`] order); the default hands
/// [`Scheduler::pick`] the whole annotated slice in that order. A daemon
/// that can decide from a few ranks overrides `pick_from` to skip the
/// O(n) slice; it must then pick exactly what `pick` would over that
/// slice, which the test reference checks at every step.
pub trait Scheduler {
    /// Choose one of the enabled moves.
    fn pick(&mut self, step: u64, enabled: &[EnabledMove]) -> usize;

    /// Choose one of the enabled moves by rank. The default materialises
    /// the slice into a buffer the engine reuses and calls
    /// [`Scheduler::pick`]; wrappers must forward it.
    fn pick_from(&mut self, step: u64, enabled: &mut EnabledView<'_>) -> usize {
        self.pick(step, enabled.as_slice())
    }

    /// Scheduler name for reports.
    fn name(&self) -> &str;
}

/// Forwarding impl so scheduler *factories* returning `Box<dyn
/// Scheduler>` plug straight into `EngineBuilder::scheduler` (used by
/// the differential test sweeps).
impl Scheduler for Box<dyn Scheduler> {
    fn pick(&mut self, step: u64, enabled: &[EnabledMove]) -> usize {
        (**self).pick(step, enabled)
    }

    fn pick_from(&mut self, step: u64, enabled: &mut EnabledView<'_>) -> usize {
        (**self).pick_from(step, enabled)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Serves the first process with an enabled move at or after a cursor,
/// wrapping to the lowest such process; within a process, rotates which
/// enabled action fires. Weakly fair: a continuously enabled action is
/// fired within `n * max_actions` steps.
#[derive(Clone, Debug, Default)]
pub struct RoundRobinScheduler {
    cursor: usize,
    /// Per-process rotation offset among its action instances.
    rotation: HashMap<ProcessId, usize>,
}

impl RoundRobinScheduler {
    /// A fresh round-robin daemon.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobinScheduler {
    fn pick(&mut self, _step: u64, enabled: &[EnabledMove]) -> usize {
        // Serve the first enabled process at or after the cursor, else
        // wrap to the lowest.
        let best_pid = enabled
            .iter()
            .map(|m| m.mv.pid.index())
            .min_by_key(|&p| (p < self.cursor, p))
            .expect("pick called with enabled moves");
        let of_pid: Vec<usize> = enabled
            .iter()
            .enumerate()
            .filter(|(_, m)| m.mv.pid.index() == best_pid)
            .map(|(i, _)| i)
            .collect();
        let rot = self.rotation.entry(ProcessId(best_pid)).or_insert(0);
        let choice = of_pid[*rot % of_pid.len()];
        *rot = rot.wrapping_add(1);
        self.cursor = best_pid + 1;
        choice
    }

    fn name(&self) -> &str {
        "round-robin"
    }
}

/// Fires the enabled move whose `(pid, action)` executed least recently
/// (never-executed moves first, in `(pid, action)` order). Strongly fair.
#[derive(Clone, Debug, Default)]
pub struct LeastRecentScheduler {
    last_exec: HashMap<Move, u64>,
}

impl LeastRecentScheduler {
    /// A fresh least-recently-served daemon.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for LeastRecentScheduler {
    fn pick(&mut self, step: u64, enabled: &[EnabledMove]) -> usize {
        let (i, m) = enabled
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| {
                (
                    self.last_exec.get(&m.mv).copied().unwrap_or(0),
                    m.mv.pid,
                    m.mv.action,
                )
            })
            .expect("pick called with enabled moves");
        self.last_exec.insert(m.mv, step + 1);
        i
    }

    fn name(&self) -> &str {
        "least-recent"
    }
}

/// Picks uniformly at random among enabled moves. Deterministic in its
/// seed; weakly fair with probability 1.
#[derive(Clone, Debug)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// A random daemon with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: rng::rng(rng::subseed(seed, 0x5EED)),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, _step: u64, enabled: &[EnabledMove]) -> usize {
        self.rng.gen_range(0..enabled.len())
    }

    fn pick_from(&mut self, _step: u64, enabled: &mut EnabledView<'_>) -> usize {
        self.rng.gen_range(0..enabled.len())
    }

    fn name(&self) -> &str {
        "random"
    }
}

/// Hostile selection policies for [`AdversarialScheduler`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Adversary {
    /// Avoid scheduling the given process for as long as fairness allows.
    StarveProcess(ProcessId),
    /// Always pick the *newest*-enabled move (LIFO), starving old moves
    /// up to the fairness bound.
    Newest,
    /// Strict kind preference: fire a move of the earliest listed kind
    /// that has any enabled instance; kinds not listed are a last
    /// resort. (E.g. `[LEAVE, JOIN]` realizes the paper's cycle-livelock
    /// schedule: keep everyone flapping between hungry and thinking and
    /// never let an `enter` fire voluntarily.)
    KindOrder(Vec<usize>),
}

/// A hostile but weakly fair daemon: follows its [`Adversary`] policy
/// except that any move continuously enabled for `bound` steps is fired
/// immediately (oldest first). With `bound = B` every computation it
/// produces is weakly fair.
#[derive(Clone, Debug)]
pub struct AdversarialScheduler {
    policy: Adversary,
    bound: u64,
    rng: StdRng,
}

impl AdversarialScheduler {
    /// A hostile daemon with the given policy and fairness bound.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0` (a zero bound could never fire anything).
    pub fn new(policy: Adversary, bound: u64, seed: u64) -> Self {
        assert!(bound > 0, "fairness bound must be positive");
        AdversarialScheduler {
            policy,
            bound,
            rng: rng::rng(rng::subseed(seed, 0xADE0)),
        }
    }
}

impl Scheduler for AdversarialScheduler {
    fn pick(&mut self, _step: u64, enabled: &[EnabledMove]) -> usize {
        // Fairness override: fire the oldest overdue move.
        if let Some((i, _)) = enabled
            .iter()
            .enumerate()
            .filter(|(_, m)| m.age >= self.bound)
            .max_by_key(|(_, m)| m.age)
        {
            return i;
        }
        let mut candidates: Vec<usize> = match &self.policy {
            Adversary::StarveProcess(p) => indices_where(enabled, |m| m.mv.pid != *p),
            Adversary::Newest => {
                let min_age = enabled.iter().map(|m| m.age).min().unwrap_or(1);
                indices_where(enabled, |m| m.age == min_age)
            }
            Adversary::KindOrder(order) => order
                .iter()
                .map(|&k| indices_where(enabled, |m| m.mv.action.kind == k))
                .find(|c| !c.is_empty())
                .unwrap_or_default(),
        };
        // A policy that rules out every enabled move falls back to all.
        if candidates.is_empty() {
            candidates = (0..enabled.len()).collect();
        }
        candidates[self.rng.gen_range(0..candidates.len())]
    }

    fn name(&self) -> &str {
        "adversarial"
    }
}

/// The indices of the enabled moves that `keep` accepts.
fn indices_where(enabled: &[EnabledMove], keep: impl Fn(&EnabledMove) -> bool) -> Vec<usize> {
    (0..enabled.len()).filter(|&i| keep(&enabled[i])).collect()
}

/// Replays an exact schedule of moves; panics if a scripted move is not
/// enabled when its turn comes (so scenario tests fail loudly), and after
/// the script is exhausted behaves like [`LeastRecentScheduler`].
#[derive(Clone, Debug)]
pub struct ScriptedScheduler {
    script: Vec<Move>,
    pos: usize,
    lenient: bool,
    skipped: usize,
    fallback: LeastRecentScheduler,
}

impl ScriptedScheduler {
    /// Replay exactly `script`, then fall back to fair scheduling.
    pub fn new(script: Vec<Move>) -> Self {
        ScriptedScheduler {
            script,
            pos: 0,
            lenient: false,
            skipped: 0,
            fallback: LeastRecentScheduler::new(),
        }
    }

    /// Replay `script`, silently *skipping* entries whose move is not
    /// enabled when their turn comes instead of panicking. Deterministic
    /// given the same engine state, which makes it safe to drive with
    /// delta-debugged scripts whose remaining moves may no longer chain
    /// (the shrinker treats a skip-heavy run as a failed reproduction
    /// rather than an error).
    pub fn lenient(script: Vec<Move>) -> Self {
        ScriptedScheduler {
            lenient: true,
            ..Self::new(script)
        }
    }

    /// How many scripted moves have fired so far.
    pub fn position(&self) -> usize {
        self.pos - self.skipped
    }

    /// How many scripted entries were skipped because their move was not
    /// enabled (always `0` for the strict constructor).
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Whether the whole script has been replayed.
    pub fn finished(&self) -> bool {
        self.pos >= self.script.len()
    }
}

impl Scheduler for ScriptedScheduler {
    fn pick(&mut self, step: u64, enabled: &[EnabledMove]) -> usize {
        while self.pos < self.script.len() {
            let want = self.script[self.pos];
            let found = enabled.iter().position(|m| m.mv == want);
            match found {
                Some(i) => {
                    self.pos += 1;
                    return i;
                }
                None if self.lenient => {
                    self.pos += 1;
                    self.skipped += 1;
                }
                None => panic!(
                    "scripted move #{} {:?} is not enabled at step {step}; enabled: {:?}",
                    self.pos,
                    want,
                    enabled.iter().map(|m| m.mv).collect::<Vec<_>>()
                ),
            }
        }
        self.fallback.pick(step, enabled)
    }

    fn name(&self) -> &str {
        "scripted"
    }
}

/// Convenience constructor for a [`Move`].
pub fn mv(pid: usize, kind: usize) -> Move {
    Move {
        pid: ProcessId(pid),
        action: ActionId::global(kind),
    }
}

/// Convenience constructor for a per-neighbor [`Move`].
pub fn mv_slot(pid: usize, kind: usize, slot: usize) -> Move {
    Move {
        pid: ProcessId(pid),
        action: ActionId::at_slot(kind, slot),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use crate::enabled::EnabledIndex;
    use crate::graph::Topology;
    use crate::toy::ToyDiners;

    fn moves(pids: &[usize]) -> Vec<EnabledMove> {
        pids.iter()
            .map(|&p| EnabledMove {
                mv: mv(p, 0),
                age: 1,
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_processes() {
        let mut s = RoundRobinScheduler::new();
        let e = moves(&[0, 1, 2]);
        let picks: Vec<usize> = (0..6).map(|st| s.pick(st, &e)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    /// An enabled index over `line(8)` holding exactly `enabled` (in
    /// process-major order), all admitted at step 0.
    fn index_of(enabled: &[EnabledMove]) -> EnabledIndex {
        let mut index = EnabledIndex::new(&Topology::line(8), ToyDiners.kinds());
        for p in 0..8 {
            let mut list: Vec<Move> = enabled
                .iter()
                .map(|m| m.mv)
                .filter(|m| m.pid.index() == p)
                .collect();
            index.update(p, &mut list, 0);
        }
        index
    }

    #[test]
    fn round_robin_wraps_to_the_lowest_pid() {
        // Alternating {0,6,7} and {0,6}: restarting at `cursor % (max
        // enabled pid + 1)` served 6 and 7 forever and the continuously
        // enabled 0 once in 40 picks.
        let sets = [moves(&[0, 6, 7]), moves(&[0, 6])];
        let mut s = RoundRobinScheduler::new();
        let mut served_0 = Vec::new();
        for st in 0..40u64 {
            let e = &sets[st as usize % 2];
            let i = s.pick(st, e);
            if e[i].mv.pid == ProcessId(0) {
                served_0.push(st);
            }
        }
        assert_eq!(served_0.len(), 20, "{served_0:?}");
        assert!(
            served_0.windows(2).all(|w| w[1] - w[0] <= 3),
            "{served_0:?}"
        );
    }

    #[test]
    fn boxed_random_picks_by_rank_like_a_bare_one() {
        let e = moves(&[0, 1, 2, 3, 5]);
        let index = index_of(&e);
        let mut bare = RandomScheduler::new(3);
        let mut boxed: Box<dyn Scheduler> = Box::new(RandomScheduler::new(3));
        let mut buf = Vec::new();
        for st in 0..32 {
            let i = Scheduler::pick_from(&mut boxed, st, &mut index.view(0, &mut buf));
            assert_eq!(i, bare.pick(st, &e));
        }
        assert!(buf.is_empty(), "the boxed daemon materialised the slice");
    }

    #[test]
    fn round_robin_rotates_actions_within_a_process() {
        let mut s = RoundRobinScheduler::new();
        let e = vec![
            EnabledMove {
                mv: mv(0, 0),
                age: 1,
            },
            EnabledMove {
                mv: mv(0, 1),
                age: 1,
            },
        ];
        let a = s.pick(0, &e);
        let b = s.pick(1, &e);
        assert_ne!(a, b, "successive picks rotate between the two actions");
    }

    #[test]
    fn least_recent_serves_everything() {
        let mut s = LeastRecentScheduler::new();
        let e = moves(&[2, 0, 1]);
        let mut served = std::collections::HashSet::new();
        for st in 0..3 {
            served.insert(e[s.pick(st, &e)].mv.pid);
        }
        assert_eq!(served.len(), 3);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let e = moves(&[0, 1, 2, 3]);
        let a: Vec<usize> = {
            let mut s = RandomScheduler::new(3);
            (0..16).map(|st| s.pick(st, &e)).collect()
        };
        let b: Vec<usize> = {
            let mut s = RandomScheduler::new(3);
            (0..16).map(|st| s.pick(st, &e)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&i| i < 4));
    }

    #[test]
    fn adversary_starves_process_until_forced() {
        let mut s = AdversarialScheduler::new(Adversary::StarveProcess(ProcessId(0)), 3, 1);
        let e = moves(&[0, 1]);
        assert_eq!(e[s.pick(0, &e)].mv.pid, ProcessId(1));
        let overdue = vec![
            EnabledMove {
                mv: mv(0, 0),
                age: 3,
            },
            EnabledMove {
                mv: mv(1, 0),
                age: 1,
            },
        ];
        assert_eq!(overdue[s.pick(1, &overdue)].mv.pid, ProcessId(0));
    }

    #[test]
    fn adversary_kind_order_prefers_earliest_listed() {
        let mut s = AdversarialScheduler::new(Adversary::KindOrder(vec![1, 0]), 100, 5);
        let e = vec![
            EnabledMove {
                mv: mv(0, 0),
                age: 1,
            },
            EnabledMove {
                mv: mv(1, 1),
                age: 1,
            },
            EnabledMove {
                mv: mv(2, 2),
                age: 1,
            },
        ];
        assert_eq!(s.pick(0, &e), 1, "kind 1 listed first");
        let only_unlisted = vec![EnabledMove {
            mv: mv(2, 2),
            age: 1,
        }];
        assert_eq!(
            s.pick(1, &only_unlisted),
            0,
            "unlisted kinds as last resort"
        );
    }

    #[test]
    fn adversary_newest_picks_min_age() {
        let mut s = AdversarialScheduler::new(Adversary::Newest, 100, 4);
        let e = vec![
            EnabledMove {
                mv: mv(0, 0),
                age: 9,
            },
            EnabledMove {
                mv: mv(1, 0),
                age: 1,
            },
        ];
        assert_eq!(s.pick(0, &e), 1);
    }

    #[test]
    #[should_panic(expected = "fairness bound must be positive")]
    fn adversary_rejects_zero_bound() {
        AdversarialScheduler::new(Adversary::Newest, 0, 0);
    }

    #[test]
    fn scripted_replays_and_falls_back() {
        let mut s = ScriptedScheduler::new(vec![mv(1, 0), mv(0, 0)]);
        let e = moves(&[0, 1]);
        assert_eq!(s.pick(0, &e), 1);
        assert!(!s.finished());
        assert_eq!(s.pick(1, &e), 0);
        assert!(s.finished());
        // Fallback keeps going.
        let _ = s.pick(2, &e);
        assert_eq!(s.position(), 2);
    }

    #[test]
    #[should_panic(expected = "not enabled")]
    fn scripted_panics_on_unavailable_move() {
        let mut s = ScriptedScheduler::new(vec![mv(5, 0)]);
        let e = moves(&[0, 1]);
        s.pick(0, &e);
    }

    /// The lenient constructor skips script entries whose move is not
    /// currently enabled (counting them) instead of panicking, fires
    /// the rest in order, and falls back after exhaustion.
    #[test]
    fn lenient_scripted_skips_disabled_entries() {
        let mut s = ScriptedScheduler::lenient(vec![mv(5, 0), mv(1, 0), mv(7, 3), mv(0, 0)]);
        let e = moves(&[0, 1]);
        // mv(5,0) is not enabled: skipped, mv(1,0) fires.
        assert_eq!(s.pick(0, &e), 1);
        assert_eq!(s.skipped(), 1);
        assert_eq!(s.position(), 1);
        // mv(7,3) skipped, mv(0,0) fires; the script is exhausted.
        assert_eq!(s.pick(1, &e), 0);
        assert_eq!(s.skipped(), 2);
        assert!(s.finished());
        // Deterministic fallback keeps the run going; only scripted
        // fires count toward the position.
        let _ = s.pick(2, &e);
        assert_eq!(s.position(), 2);
        // A strict scheduler never skips.
        let mut strict = ScriptedScheduler::new(vec![mv(0, 0)]);
        strict.pick(0, &e);
        assert_eq!(strict.skipped(), 0);
    }
}
