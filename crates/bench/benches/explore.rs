//! Explorer benchmarks: state throughput of the exhaustive search,
//! sequential vs parallel frontier expansion.
//!
//! Each iteration runs a complete search (exploration has no meaningful
//! "single step"), so the sample counts are kept small.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use diners_core::MaliciousCrashDiners;
use diners_sim::algorithm::SystemState;
use diners_sim::codec::StateCodec;
use diners_sim::explore::{available_parallelism, explore_with, ExploreConfig};
use diners_sim::fault::Health;
use diners_sim::graph::Topology;
use diners_sim::predicate::Snapshot;
use diners_sim::toy::ToyDiners;

/// States of a full search of `alg` on `topo` with `threads` workers.
fn search<A>(alg: &A, topo: &Topology, threads: usize) -> usize
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
            threads,
            ..ExploreConfig::default()
        },
    )
    .states
}

/// One group per case: a sequential and an all-cores run.
fn bench_case<A>(c: &mut Criterion, name: &str, alg: &A, topo: &Topology)
where
    A: StateCodec + Sync,
    A::Local: Send + Sync,
    A::Edge: Send + Sync,
{
    let threads = available_parallelism();
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.bench_function("sequential", |b| b.iter(|| black_box(search(alg, topo, 1))));
    group.bench_function(format!("parallel-{threads}"), |b| {
        b.iter(|| black_box(search(alg, topo, threads)))
    });
    group.finish();
}

fn explore_toy(c: &mut Criterion) {
    bench_case(c, "explore-toy-ring10", &ToyDiners, &Topology::ring(10));
}

fn explore_mca(c: &mut Criterion) {
    let alg = MaliciousCrashDiners::paper();
    bench_case(c, "explore-mca-line4", &alg, &Topology::line(4));
}

criterion_group!(benches, explore_toy, explore_mca);
criterion_main!(benches);
