//! Benchmarks of overlay construction, across the five geometries and
//! across occupancies — the fixed cost every simulated figure pays before
//! routing a single message.
//!
//! The full-population group times what the front door runs: the
//! geometry-name builder plus the first `kernel()` call, which compiles the
//! plan straight from the construction stream (the ring and the hypercube
//! route in closed form and compile nothing). The sparse group times the
//! eager `build_over` constructors, which store every table in the CSR
//! arena.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dht_experiments::spec::{build_overlay, Backend};
use dht_id::{KeySpace, Population};
use dht_overlay::{CanOverlay, ChordOverlay, ChordVariant, KademliaOverlay};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

const BITS: u32 = 12;

/// The compile thread budget: one thread, the budget of a spec without an
/// execution block.
const THREADS: usize = 1;

fn bench_full_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlay_build_full_2_12");
    for geometry in ["tree", "hypercube", "xor", "ring", "symphony"] {
        group.bench_function(BenchmarkId::from_parameter(geometry), |b| {
            b.iter(|| {
                let overlay =
                    build_overlay(geometry, BITS, 3, Backend::Materialized, THREADS).unwrap();
                black_box(overlay.kernel().map(|kernel| kernel.plan_bytes()));
                overlay
            })
        });
    }
    group.finish();
}

fn bench_sparse_build(c: &mut Criterion) {
    let space = KeySpace::new(BITS).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let population = Population::sample_uniform(space, 1 << (BITS - 2), &mut rng).unwrap();
    let mut group = c.benchmark_group("overlay_build_sparse_2_12_quarter");
    group.bench_function(BenchmarkId::from_parameter("ring"), |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            black_box(
                ChordOverlay::build_over(population.clone(), ChordVariant::Randomized, &mut rng)
                    .unwrap(),
            )
        })
    });
    group.bench_function(BenchmarkId::from_parameter("xor"), |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            black_box(KademliaOverlay::build_over(population.clone(), &mut rng).unwrap())
        })
    });
    group.bench_function(BenchmarkId::from_parameter("hypercube"), |b| {
        b.iter(|| black_box(CanOverlay::build_over(population.clone()).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_full_build, bench_sparse_build);
criterion_main!(benches);
