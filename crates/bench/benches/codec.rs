//! Codec and symmetry micro-benchmarks: encode/decode round-trip cost,
//! canonicalization cost, and full vs quotient explorations.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::SystemState;
use diners_sim::codec::Codec;
use diners_sim::explore::{explore_with, ExploreConfig, Limits, Reduction};
use diners_sim::fault::Health;
use diners_sim::graph::Topology;
use diners_sim::predicate::Snapshot;
use diners_sim::symmetry::{canonicalize_into, SymmetryGroup};

fn roundtrip(c: &mut Criterion) {
    let topo = Topology::ring(12);
    let alg = MaliciousCrashDiners::paper();
    let codec = Codec::new(&alg, &topo);
    let state = SystemState::initial(&alg, &topo);
    let packed = codec.encode(&state);
    let mut words = vec![0u64; codec.words()];
    let mut decoded = state.clone();

    let mut group = c.benchmark_group("codec-mca-ring12");
    group.bench_function("encode", |b| {
        b.iter(|| {
            codec.encode_into(black_box(&state), &mut words);
            black_box(&words);
        });
    });
    group.bench_function("decode", |b| {
        b.iter(|| {
            codec.decode_into(black_box(&packed), &mut decoded);
            black_box(&decoded);
        });
    });
    group.finish();
}

fn canonicalize(c: &mut Criterion) {
    let topo = Topology::ring(12);
    let alg = MaliciousCrashDiners::paper();
    let codec = Codec::new(&alg, &topo);
    let group_ = SymmetryGroup::for_topology(&topo);
    let state = SystemState::initial(&alg, &topo);
    let packed = codec.encode(&state);
    let mut canon = vec![0u64; codec.words()];
    let mut scratch = vec![0u64; codec.words()];

    c.bench_function("canonicalize-mca-ring12-d24", |b| {
        b.iter(|| {
            black_box(canonicalize_into(
                &codec,
                &group_,
                black_box(&packed),
                &mut canon,
                &mut scratch,
            ))
        });
    });
}

fn explore_symmetry(c: &mut Criterion) {
    let alg = MaliciousCrashDiners::paper();
    let topo = Topology::ring(4);
    let n = topo.len();
    let health = vec![Health::Live; n];
    let needs = vec![true; n];
    let safety = |_: &Snapshot<'_, MaliciousCrashDiners>| true;

    let mut group = c.benchmark_group("explore-mca-ring4-symmetry");
    group.sample_size(10);
    for (label, reduction) in [
        ("full", Reduction::Packed),
        ("quotient", Reduction::Symmetry),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let initial = SystemState::initial(&alg, &topo);
                black_box(
                    explore_with(
                        &alg,
                        &topo,
                        initial,
                        &health,
                        &needs,
                        safety,
                        ExploreConfig {
                            limits: Limits::default(),
                            reduction,
                            threads: 1,
                        },
                    )
                    .states,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, roundtrip, canonicalize, explore_symmetry);
criterion_main!(benches);
