//! T9 — chaos soak: randomized network adversary schedules.
//!
//! Sweeps randomized [`AdversaryPlan`]s — loss, duplication, bounded
//! delay, reordering, and healing link/node outages in every mix — over
//! the topology families, asserting the two properties the message
//! passing transformation owes us:
//!
//! * **safety, always**: zero live-pair exclusion violations at any step
//!   of any run (network faults never excuse a violation; the runs start
//!   legitimate and keep every process alive);
//! * **liveness, after healing**: once the last scheduled outage is past,
//!   every (needy) process eats in the measurement window.
//!
//! The schedules are generated deterministically from the case index, so
//! any failing run is reproducible from its table row alone. Any
//! violation step or post-heal starvation fails the experiment.

use diners_mp::{AdversaryPlan, SimNet};
use diners_sim::fault::FaultPlan;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::rng;
use diners_sim::table::Table;
use rand::rngs::StdRng;
use rand::Rng;

use super::Report;
use crate::common::{families, Scale};

/// Outcome of a single chaos run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Steps at which two live neighbors were simultaneously eating.
    pub violations: u64,
    /// Processes with zero meals in the post-heal window.
    pub starved: Vec<ProcessId>,
    /// The schedule, for reproduction.
    pub plan: String,
}

/// Draw a randomized adversary schedule for `topo`. Probabilistic rates
/// stay in ranges where liveness is still owed (loss well under the
/// builder's ceiling); outages are scheduled to heal before `settle`,
/// so the measurement window is fault-free except for the probabilistic
/// noise.
pub fn sample_plan(topo: &Topology, r: &mut StdRng, settle: u64) -> AdversaryPlan {
    let mut plan = AdversaryPlan::new()
        .loss(r.gen_range(0..=250))
        .duplication(r.gen_range(0..=250))
        .reorder(r.gen_range(0..=250));
    if r.gen_bool(0.7) {
        plan = plan.delay(r.gen_range(1..=400), r.gen_range(2..=16));
    }
    for _ in 0..r.gen_range(0..=2u32) {
        let from = r.gen_range(0..settle / 2);
        let until = from + r.gen_range(settle / 16..=settle / 2);
        if r.gen_bool(0.5) {
            let edges = topo.edges();
            let (a, b) = edges[r.gen_range(0..edges.len())];
            plan = plan.cut_link(a, b, from, until.min(settle));
        } else {
            let p = ProcessId(r.gen_range(0..topo.len()));
            plan = plan.isolate(p, from, until.min(settle));
        }
    }
    plan
}

/// One chaos run: legitimate start, no process faults, `plan` on the
/// links. Safety is counted over the *entire* run; liveness over the
/// final `window` steps, which begin only after `plan.healed_by()`.
pub fn chaos_run(
    topo: Topology,
    plan: AdversaryPlan,
    seed: u64,
    steps: u64,
    window: u64,
) -> ChaosOutcome {
    let describe = plan.describe();
    let mut net = SimNet::with_adversary(topo, FaultPlan::none(), plan, seed);
    let start = steps
        .saturating_sub(window)
        .max(net.adversary_plan().healed_by());
    net.run(start);
    let since = net.step_count();
    net.run(window);
    let starved: Vec<ProcessId> = net
        .topology()
        .processes()
        .filter(|&p| net.last_meal(p) < Some(since))
        .collect();
    ChaosOutcome {
        violations: net.violation_steps(),
        starved,
        plan: describe,
    }
}

/// The full sweep: per topology family, `plans_per_topo` randomized
/// schedules x `scale.seeds` seeds.
pub fn run(scale: &Scale) -> Report {
    let mut t = Table::new(
        "T9: chaos soak (randomized link-fault schedules, SimNet)",
        [
            "topology",
            "runs",
            "violation steps",
            "starved post-heal",
            "verdict",
        ],
    );
    // 4 families x 10 plans x `seeds` seeds: 200 runs at full scale.
    let plans_per_topo = if scale.seeds >= 5 { 10 } else { 3 };
    let n = scale.sizes[0].max(8);
    let steps = scale.settle + scale.window;
    let (mut total_runs, mut total_violations, mut total_starved) = (0u64, 0u64, 0u64);
    for (ti, topo) in families(n, 0xC0FFEE).into_iter().enumerate() {
        let mut violations = 0;
        let mut starved = 0;
        let mut runs = 0;
        let mut worst: Option<String> = None;
        for plan_case in 0..plans_per_topo {
            let mut r = rng::rng(rng::subseed(0x9A05, (ti * 1000 + plan_case) as u64));
            let plan = sample_plan(&topo, &mut r, scale.settle);
            for seed in 0..scale.seeds {
                let out = chaos_run(topo.clone(), plan.clone(), seed, steps, scale.window);
                runs += 1;
                violations += out.violations;
                starved += out.starved.len() as u64;
                if (out.violations > 0 || !out.starved.is_empty()) && worst.is_none() {
                    worst = Some(format!("{} (seed {seed}): {:?}", out.plan, out.starved));
                }
            }
        }
        total_runs += runs;
        total_violations += violations;
        total_starved += starved;
        t.row([
            topo.name().to_string(),
            runs.to_string(),
            violations.to_string(),
            starved.to_string(),
            worst.unwrap_or_else(|| "safe + live".into()),
        ]);
    }
    let mut report = Report::of([t]);
    report.check(total_violations == 0 && total_starved == 0, || {
        format!(
            "chaos: {total_violations} violation steps and {total_starved} starved \
             post-heal over {total_runs} runs"
        )
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_plans_are_deterministic_and_heal() {
        let topo = Topology::ring(8);
        for case in 0..20 {
            let mut a = rng::rng(rng::subseed(7, case));
            let mut b = rng::rng(rng::subseed(7, case));
            let pa = sample_plan(&topo, &mut a, 8_000);
            let pb = sample_plan(&topo, &mut b, 8_000);
            assert_eq!(pa, pb, "case {case} not deterministic");
            assert!(pa.healed_by() <= 8_000, "case {case} heals too late");
        }
    }

    #[test]
    fn single_chaos_run_is_safe_and_live() {
        let topo = Topology::ring(8);
        let plan = AdversaryPlan::new()
            .loss(150)
            .duplication(150)
            .delay(200, 8)
            .reorder(100)
            .cut_link(ProcessId(0), ProcessId(1), 0, 2_000);
        let out = chaos_run(topo, plan, 3, 40_000, 15_000);
        assert_eq!(out.violations, 0, "chaos broke exclusion ({})", out.plan);
        assert!(out.starved.is_empty(), "starved: {:?}", out.starved);
    }
}
