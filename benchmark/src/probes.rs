//! Per-call costs measured by calling the programs' public functions
//! directly on sampled states: guards and commands of the algorithm, the
//! state codec, fingerprinting, canonicalisation and the link adversary.
//!
//! Each measurement repeats a batch of calls inside one timed interval,
//! so the clock's own cost is spread over many calls.

use std::hint::black_box;
use std::time::Instant;

use diners_core::MaliciousCrashDiners;
use diners_mp::{AdversaryPlan, LinkAdversary, LinkMsg};
use diners_sim::algorithm::{ActionId, Algorithm, SystemState, View};
use diners_sim::codec::Codec;
use diners_sim::fingerprint::fingerprint_words;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::symmetry::{canonicalize_into, SymmetryGroup};

/// Repetitions of each batch inside one timed interval.
const REPEAT: u32 = 16;

/// Accumulated time and call count of one kind of call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    ns: u128,
    calls: u64,
}

impl Cost {
    /// Mean nanoseconds per call (0 before any call).
    pub fn per_call_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }

    /// Time `REPEAT` runs of `batch`, which makes `calls` calls per run.
    fn time(&mut self, calls: u64, mut batch: impl FnMut()) {
        if calls == 0 {
            return;
        }
        let t = Instant::now();
        for _ in 0..REPEAT {
            batch();
        }
        self.ns += t.elapsed().as_nanos();
        self.calls += calls * u64::from(REPEAT);
    }
}

/// Every action instance of process `p`, enabled or not.
pub fn action_instances(
    alg: &MaliciousCrashDiners,
    topo: &Topology,
    p: ProcessId,
) -> Vec<ActionId> {
    let mut out = Vec::new();
    for (k, kind) in alg.kinds().iter().enumerate() {
        if kind.per_neighbor {
            out.extend((0..topo.degree(p)).map(|slot| ActionId::at_slot(k, slot)));
        } else {
            out.push(ActionId::global(k));
        }
    }
    out
}

/// Guard evaluations per explored state: every action instance of every
/// process (all processes are live in the explorer workloads).
pub fn guards_per_state(alg: &MaliciousCrashDiners, topo: &Topology) -> u64 {
    topo.processes()
        .map(|p| action_instances(alg, topo, p).len() as u64)
        .sum()
}

/// Guard and command costs of the paper's algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlgorithmCost {
    /// `Algorithm::enabled`, per guard instance.
    pub guard: Cost,
    /// `Algorithm::execute`, per enabled instance.
    pub execute: Cost,
}

impl AlgorithmCost {
    /// Evaluate every guard of each process in `procs` on `state`, and
    /// execute each enabled one. `needs` gives each process's demand.
    pub fn sample(
        &mut self,
        alg: &MaliciousCrashDiners,
        topo: &Topology,
        state: &SystemState<MaliciousCrashDiners>,
        procs: &[ProcessId],
        needs: impl Fn(ProcessId) -> bool,
    ) {
        let views: Vec<(View<'_, MaliciousCrashDiners>, Vec<ActionId>)> = procs
            .iter()
            .map(|&p| {
                (
                    View::new(topo, state, p, needs(p)),
                    action_instances(alg, topo, p),
                )
            })
            .collect();
        let guards: u64 = views.iter().map(|(_, a)| a.len() as u64).sum();
        self.guard.time(guards, || {
            for (view, actions) in &views {
                for &a in actions {
                    black_box(alg.enabled(black_box(view), a));
                }
            }
        });
        let enabled: Vec<(&View<'_, MaliciousCrashDiners>, ActionId)> = views
            .iter()
            .flat_map(|(v, acts)| {
                acts.iter()
                    .filter(|&&a| alg.enabled(v, a))
                    .map(move |&a| (v, a))
            })
            .collect();
        self.execute.time(enabled.len() as u64, || {
            for &(view, a) in &enabled {
                black_box(alg.execute(black_box(view), a));
            }
        });
    }
}

/// Costs of the explorer's per-state primitives.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecCost {
    /// `Codec::encode_into`, per state.
    pub encode: Cost,
    /// `Codec::decode_into`, per state.
    pub decode: Cost,
    /// `fingerprint_words`, per packed state.
    pub fingerprint: Cost,
    /// `canonicalize_into`, per packed state.
    pub canonicalize: Cost,
}

impl CodecCost {
    /// Measure every primitive on each of `states`, canonicalising under
    /// `group`.
    pub fn sample(
        &mut self,
        codec: &Codec<'_, MaliciousCrashDiners>,
        group: &SymmetryGroup,
        states: &[SystemState<MaliciousCrashDiners>],
    ) {
        let stride = codec.words();
        let mut words = vec![0u64; stride];
        let mut canon = vec![0u64; stride];
        let mut scratch = vec![0u64; stride];
        let mut decoded = states[0].clone();
        for state in states {
            self.encode
                .time(1, || codec.encode_into(black_box(state), &mut words));
            self.decode
                .time(1, || codec.decode_into(black_box(&words), &mut decoded));
            self.fingerprint.time(1, || {
                black_box(fingerprint_words(black_box(&words)));
            });
            self.canonicalize.time(1, || {
                black_box(canonicalize_into(
                    codec,
                    group,
                    black_box(&words),
                    &mut canon,
                    &mut scratch,
                ));
            });
        }
    }
}

/// Mean cost of one `LinkAdversary::apply` under `plan`, over `sends`
/// probe messages round a ring of `n` processes.
pub fn adversary_apply_ns(plan: &AdversaryPlan, seed: u64, n: usize, sends: u64) -> f64 {
    let mut adv = LinkAdversary::new(plan.clone(), seed);
    let mut out = Vec::with_capacity(4);
    let mut cost = Cost::default();
    let batch = 64u64;
    for chunk in 0..sends / batch {
        cost.time(batch, || {
            for i in 0..batch {
                let k = chunk * batch + i;
                let from = ProcessId((k as usize) % n);
                let to = ProcessId((from.0 + 1) % n);
                out.clear();
                adv.apply(k, from, to, LinkMsg::probe(from), false, &mut out);
                black_box(&out);
            }
        });
    }
    cost.per_call_ns()
}
