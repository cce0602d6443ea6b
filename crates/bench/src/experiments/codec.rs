//! T14 — explorer memory and state-count reduction: packed state codec
//! and symmetry-quotient exploration.
//!
//! Like T10 this measures the *reproduction infrastructure*, not the
//! paper's claims. The packed search is proven bit-identical to a
//! cloned-state reference search and the symmetry quotient
//! verdict-equivalent by the differential suites
//! (`crates/sim/tests/symmetry_equiv.rs`,
//! `crates/diners/tests/codec_equiv.rs`); what remains to quantify is
//!
//! * **bytes per interned state** — a cloned [`SystemState`] (struct
//!   plus its two vectors' payloads, by size formula) vs packed `u64`
//!   words (the codec's reason to exist: toy states carry 2 bits of
//!   information per process but cost ~60 heap bytes cloned), with the
//!   packed search's sequential states/sec alongside;
//! * **visited-state reduction under symmetry** — on a uniform ring the
//!   stabilized automorphism group has order `2n`, so the orbit quotient
//!   should shrink the state count by at least `n/2`.
//!
//! Results are emitted as `BENCH_codec.json` for CI to archive.

use std::mem::size_of;

use diners_sim::algorithm::SystemState;
use diners_sim::codec::StateCodec;
use diners_sim::explore::{explore_with, ExplorationReport, ExploreConfig, Limits, Reduction};
use diners_sim::fault::Health;
use diners_sim::graph::Topology;
use diners_sim::predicate::Snapshot;
use diners_sim::table::{fmt_f64, Table};
use diners_sim::toy::ToyDiners;

use diners_baselines::HygienicDiners;
use diners_core::MaliciousCrashDiners;

use super::{json_object, json_rows, Report};
use crate::common::Scale;

fn run_one<A>(alg: &A, topo: &Topology, reduction: Reduction, limits: Limits) -> ExplorationReport
where
    A: StateCodec + Sync,
    A::Local: Send + Sync,
    A::Edge: Send + Sync,
{
    let n = topo.len();
    explore_with(
        alg,
        topo,
        SystemState::initial(alg, topo),
        &vec![Health::Live; n],
        &vec![true; n],
        |_: &Snapshot<'_, A>| true,
        ExploreConfig {
            limits,
            reduction,
            threads: 1,
        },
    )
}

struct ReprCase {
    case: String,
    /// Heap bytes of one cloned state.
    cloned_bytes_per_state: f64,
    packed: ExplorationReport,
}

fn repr_case<A>(label: &str, alg: &A, topo: &Topology) -> ReprCase
where
    A: StateCodec + Sync,
    A::Local: Send + Sync,
    A::Edge: Send + Sync,
{
    ReprCase {
        case: format!("{label}-{}", topo.name()),
        cloned_bytes_per_state: (size_of::<SystemState<A>>()
            + topo.len() * size_of::<A::Local>()
            + topo.edge_count() * size_of::<A::Edge>()) as f64,
        packed: run_one(alg, topo, Reduction::Packed, Limits::default()),
    }
}

/// Run the T14 sweep. `quick` shrinks the topologies so the sweep fits
/// in integration tests and CI smoke runs. A truncated search or a
/// quotient below the `n/2` floor fails the experiment.
pub fn run(scale: &Scale) -> Report {
    let quick = scale.quick;
    let toy_topo = if quick {
        Topology::ring(9)
    } else {
        Topology::ring(12)
    };
    let mca_topo = if quick {
        Topology::ring(3)
    } else {
        Topology::ring(4)
    };
    let hy_topo = if quick {
        Topology::ring(4)
    } else {
        Topology::ring(5)
    };

    let cases = [
        repr_case("toy", &ToyDiners, &toy_topo),
        repr_case("mca", &MaliciousCrashDiners::paper(), &mca_topo),
        repr_case("hygienic", &HygienicDiners, &hy_topo),
    ];

    let mut repr_table = Table::new(
        "T14: visited-set bytes/state, cloned vs packed (sequential packed search)".to_string(),
        [
            "case",
            "states",
            "cloned B/st",
            "packed B/st",
            "shrink",
            "packed st/s",
        ],
    );
    let mut json_repr = Vec::new();
    for c in &cases {
        let shrink = c.cloned_bytes_per_state / c.packed.bytes_per_state();
        repr_table.row([
            c.case.clone(),
            c.packed.states.to_string(),
            fmt_f64(c.cloned_bytes_per_state, 1),
            fmt_f64(c.packed.bytes_per_state(), 1),
            fmt_f64(shrink, 1),
            fmt_f64(c.packed.states_per_sec(), 0),
        ]);
        json_repr.push(format!(
            concat!(
                "{{\"case\":\"{}\",\"states\":{},",
                "\"cloned_bytes_per_state\":{:.1},\"packed_bytes_per_state\":{:.1},",
                "\"bytes_reduction\":{:.2},\"packed_states_per_sec\":{:.1}}}"
            ),
            c.case,
            c.packed.states,
            c.cloned_bytes_per_state,
            c.packed.bytes_per_state(),
            shrink,
            c.packed.states_per_sec(),
        ));
    }

    // Symmetry quotient on uniform rings: the stabilized group has order
    // 2n, the acceptance floor is n/2.
    let ring_sizes: &[usize] = if quick { &[3, 4] } else { &[3, 4, 5] };
    let mut sym_table = Table::new(
        "T14: symmetry quotient on rings (paper algorithm, uniform needs/health)".to_string(),
        [
            "case",
            "full states",
            "orbit reps",
            "reduction",
            "floor n/2",
        ],
    );
    let mut json_sym = Vec::new();
    let mut failures = Vec::new();
    let alg = MaliciousCrashDiners::paper();
    for &n in ring_sizes {
        let topo = Topology::ring(n);
        // ring(5)'s full space is large; cap it and compare quotients of
        // the same truncated search only if both complete. In practice
        // rings up to 5 complete well under the cap.
        let limits = Limits {
            max_states: 3_000_000,
        };
        let full = run_one(&alg, &topo, Reduction::Packed, limits);
        let sym = run_one(&alg, &topo, Reduction::Symmetry, limits);
        if full.truncated || sym.truncated {
            failures.push(format!("ring({n}) exceeded the state cap"));
        }
        let reduction = full.states as f64 / sym.states as f64;
        let floor = n as f64 / 2.0;
        if reduction < floor {
            failures.push(format!(
                "ring({n}): reduction {reduction:.2} below the n/2 floor"
            ));
        }
        sym_table.row([
            format!("mca-{}", topo.name()),
            full.states.to_string(),
            sym.states.to_string(),
            fmt_f64(reduction, 2),
            fmt_f64(floor, 1),
        ]);
        json_sym.push(format!(
            concat!(
                "{{\"case\":\"mca-{}\",\"n\":{},\"full_states\":{},",
                "\"sym_states\":{},\"reduction\":{:.3},\"floor\":{:.1},",
                "\"group_order\":{}}}"
            ),
            topo.name(),
            n,
            full.states,
            sym.states,
            reduction,
            floor,
            2 * n,
        ));
    }

    let json = json_object(&[
        ("repr", json_rows(&json_repr)),
        ("symmetry", json_rows(&json_sym)),
    ]);
    Report {
        tables: vec![repr_table, sym_table],
        json: Some(("BENCH_codec.json", json)),
        failures,
        ..Report::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::assert_json_has;
    use crate::experiments::{json_number, json_objects};

    #[test]
    fn quick_sweep_produces_tables_and_well_formed_json() {
        let report = run(&Scale::quick());
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let repr = report.tables[0].render();
        assert!(repr.contains("toy-ring"), "{repr}");
        assert!(repr.contains("mca-ring"), "{repr}");
        let sym = report.tables[1].render();
        assert!(sym.contains("mca-ring"), "{sym}");
        let (_, json) = report.json.expect("codec writes JSON");
        assert_json_has(
            &json,
            &[
                "\"repr\":",
                "\"symmetry\":",
                "\"cloned_bytes_per_state\"",
                "\"packed_bytes_per_state\"",
                "\"bytes_reduction\"",
                "\"full_states\"",
                "\"sym_states\"",
                "\"reduction\"",
            ],
        );
    }

    #[test]
    fn packed_representation_always_shrinks_bytes_by_4x() {
        // The headline claim at test size: the packed arena must be at
        // least 4x denser than the cloned one on every swept case.
        let (_, json) = run(&Scale::quick()).json.expect("codec writes JSON");
        for (case, obj) in json_objects(&json, "case") {
            let Some(red) = json_number(obj, "bytes_reduction") else {
                continue;
            };
            assert!(red >= 4.0, "{case}: bytes_reduction {red:.2} < 4");
        }
    }
}
