//! Codec and symmetry differential checks for the baseline diners.
//!
//! Greedy and hygienic both declare packed codecs (2-bit phases; 3-bit
//! fork variables) and equivariance, so they are explored packed by
//! default and are eligible for symmetry reduction. The suites here
//! verify the codec injectivity contract from randomly corrupted states
//! and the verdict-equivalence of the symmetry quotient.

use diners_baselines::{ForkVar, GreedyDiners, HygienicDiners};
use diners_sim::algorithm::{Phase, SystemState};
use diners_sim::codec::Codec;
use diners_sim::explore::{explore_with, ExplorationReport, ExploreConfig, Limits, Reduction};
use diners_sim::fault::Health;
use diners_sim::graph::{ProcessId, Topology};
use diners_sim::predicate::Snapshot;

#[path = "../../sim/tests/support/reference_bfs.rs"]
mod reference_bfs;
use reference_bfs::{assert_bit_identical, reference_bfs};

fn families() -> Vec<Topology> {
    vec![
        Topology::line(4),
        Topology::ring(5),
        Topology::star(5),
        Topology::grid(2, 3),
        Topology::complete(4),
    ]
}

#[test]
fn greedy_codec_round_trips_from_random_corruption() {
    let mut rng = diners_sim::rng::rng(5);
    for topo in families() {
        let codec = Codec::new(&GreedyDiners, &topo);
        for _ in 0..50 {
            let mut s = SystemState::initial(&GreedyDiners, &topo);
            s.corrupt_all(&GreedyDiners, &topo, &mut rng);
            let packed = codec.encode(&s);
            assert_eq!(codec.decode(&packed), s, "{}", topo.name());
        }
    }
}

#[test]
fn hygienic_codec_round_trips_from_random_corruption() {
    let mut rng = diners_sim::rng::rng(6);
    for topo in families() {
        let codec = Codec::new(&HygienicDiners, &topo);
        for _ in 0..50 {
            let mut s = SystemState::initial(&HygienicDiners, &topo);
            s.corrupt_all(&HygienicDiners, &topo, &mut rng);
            let packed = codec.encode(&s);
            assert_eq!(codec.decode(&packed), s, "{}", topo.name());
        }
    }
}

#[test]
fn hygienic_fork_var_corners_round_trip() {
    // All 8 combinations of (fork endpoint, dirty, token endpoint) on
    // every edge of a ring.
    let topo = Topology::ring(4);
    let codec = Codec::new(&HygienicDiners, &topo);
    let mut s = SystemState::initial(&HygienicDiners, &topo);
    for bits in 0u8..8 {
        for e in 0..topo.edge_count() {
            let id = diners_sim::graph::EdgeId(e);
            let (a, b) = topo.endpoints(id);
            *s.edge_mut(id) = ForkVar {
                fork_at: if bits & 1 == 0 { a } else { b },
                dirty: bits & 2 != 0,
                req_at: if bits & 4 == 0 { a } else { b },
            };
        }
        let packed = codec.encode(&s);
        assert_eq!(codec.decode(&packed), s, "pattern {bits:03b}");
    }
}

fn exclusion_greedy(snap: &Snapshot<'_, GreedyDiners>) -> bool {
    snap.topo.edges().iter().all(|&(a, b)| {
        !(*snap.state.local(a) == Phase::Eating && *snap.state.local(b) == Phase::Eating)
    })
}

fn exclusion_hygienic(snap: &Snapshot<'_, HygienicDiners>) -> bool {
    snap.topo.edges().iter().all(|&(a, b)| {
        !(*snap.state.local(a) == Phase::Eating && *snap.state.local(b) == Phase::Eating)
    })
}

fn run<A, F>(alg: &A, topo: &Topology, safety: F, reduction: Reduction) -> ExplorationReport
where
    A: diners_sim::codec::StateCodec + Sync,
    A::Local: Send + Sync,
    A::Edge: Send + Sync,
    F: Fn(&Snapshot<'_, A>) -> bool,
{
    let n = topo.len();
    explore_with(
        alg,
        topo,
        SystemState::initial(alg, topo),
        &vec![Health::Live; n],
        &vec![true; n],
        safety,
        ExploreConfig {
            limits: Limits::default(),
            reduction,
            threads: 1,
        },
    )
}

#[test]
fn greedy_symmetry_quotient_agrees_and_shrinks() {
    for topo in [Topology::ring(4), Topology::ring(6), Topology::star(5)] {
        let full = run(&GreedyDiners, &topo, exclusion_greedy, Reduction::Packed);
        let sym = run(&GreedyDiners, &topo, exclusion_greedy, Reduction::Symmetry);
        assert!(full.verified() && sym.verified(), "{}", topo.name());
        assert_eq!(full.deadlocks == 0, sym.deadlocks == 0);
        assert!(
            sym.states < full.states,
            "{}: {} vs {}",
            topo.name(),
            sym.states,
            full.states
        );
    }
}

#[test]
fn hygienic_symmetry_quotient_agrees_and_shrinks() {
    for topo in [Topology::ring(4), Topology::line(4)] {
        let full = run(
            &HygienicDiners,
            &topo,
            exclusion_hygienic,
            Reduction::Packed,
        );
        let sym = run(
            &HygienicDiners,
            &topo,
            exclusion_hygienic,
            Reduction::Symmetry,
        );
        assert_eq!(full.violation.is_some(), sym.violation.is_some());
        assert_eq!(full.truncated, sym.truncated);
        assert_eq!(full.deadlocks == 0, sym.deadlocks == 0);
        assert!(
            sym.states < full.states,
            "{}: {} vs {}",
            topo.name(),
            sym.states,
            full.states
        );
    }
}

#[test]
fn greedy_violation_traces_agree_between_representations() {
    // "p0 never eats" is *not* symmetric, so only the packed search is
    // comparable — against the cloned-state reference, bit for bit.
    let p0_eats =
        |snap: &Snapshot<'_, GreedyDiners>| *snap.state.local(ProcessId(0)) != Phase::Eating;
    let topo = Topology::ring(5);
    let cloned = reference_bfs(
        &GreedyDiners,
        &topo,
        SystemState::initial(&GreedyDiners, &topo),
        &[Health::Live; 5],
        &[true; 5],
        p0_eats,
        Limits::default(),
    );
    let packed = run(&GreedyDiners, &topo, p0_eats, Reduction::Packed);
    assert!(cloned.violation.is_some());
    assert_bit_identical(&cloned, &packed, "greedy ring(5)");
}

#[test]
fn hygienic_packed_is_bit_identical_to_cloned() {
    // The full (unreduced) hygienic space against the cloned-state
    // reference, field for field, with the packed arena at least 4×
    // smaller.
    for topo in [Topology::ring(4), Topology::ring(5)] {
        let n = topo.len();
        let cloned = reference_bfs(
            &HygienicDiners,
            &topo,
            SystemState::initial(&HygienicDiners, &topo),
            &vec![Health::Live; n],
            &vec![true; n],
            exclusion_hygienic,
            Limits::default(),
        );
        let packed = run(
            &HygienicDiners,
            &topo,
            exclusion_hygienic,
            Reduction::Packed,
        );
        assert_bit_identical(&cloned, &packed, topo.name());
        assert!(
            packed.bytes_interned * 4 <= cloned.bytes_interned,
            "{}: packed {} vs cloned {} bytes",
            topo.name(),
            packed.bytes_interned,
            cloned.bytes_interned
        );
    }
}

/// Width-fit audit for the baseline codecs: every value of the
/// corruptible domain encodes within its declared bit width (an
/// overflow would silently corrupt the neighboring packed field), and
/// the 3-bit hygienic fork variable round-trips through all 8 of its
/// combinations on every edge.
#[test]
fn baseline_fields_fit_their_declared_widths() {
    use diners_sim::algorithm::Algorithm;
    use diners_sim::codec::StateCodec;
    use diners_sim::graph::EdgeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let fits = |v: u64, bits: u32| bits >= 64 || v >> bits == 0;
    for topo in families() {
        // Greedy: 2-bit phases, zero-width edges.
        let g = GreedyDiners;
        assert_eq!(g.local_bits(&topo), 2);
        assert_eq!(g.edge_bits(&topo), 0);
        let mut rng = StdRng::seed_from_u64(1);
        for p in topo.processes() {
            for phase in [Phase::Thinking, Phase::Hungry, Phase::Eating] {
                let bits = g.encode_local(&topo, p, &phase);
                assert!(fits(bits, 2));
                assert_eq!(g.decode_local(&topo, p, bits), phase);
            }
            for _ in 0..100 {
                let phase = g.corrupt_local(&mut rng, &topo, p);
                assert!(fits(g.encode_local(&topo, p, &phase), 2));
            }
        }

        // Hygienic: 2-bit phases, 3-bit fork vars — all 8 combinations.
        let h = HygienicDiners;
        assert_eq!(h.local_bits(&topo), 2);
        assert_eq!(h.edge_bits(&topo), 3);
        for e in 0..topo.edge_count() {
            let e = EdgeId(e);
            let (a, b) = topo.endpoints(e);
            for fork_at in [a, b] {
                for dirty in [false, true] {
                    for req_at in [a, b] {
                        let v = ForkVar {
                            fork_at,
                            dirty,
                            req_at,
                        };
                        let bits = h.encode_edge(&topo, e, &v);
                        assert!(fits(bits, 3), "fork var {bits:#x} overflows");
                        assert_eq!(h.decode_edge(&topo, e, bits), v);
                    }
                }
            }
            for _ in 0..100 {
                let v = h.corrupt_edge(&mut rng, &topo, e);
                assert!(fits(h.encode_edge(&topo, e, &v), 3));
            }
        }
    }
}
