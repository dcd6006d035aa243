//! Benchmarks of the asymptotic evaluations behind Fig. 7 (experiments
//! E5/E6): log-domain routability at `N = 2^100` and the size sweep at
//! `q = 0.1`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dht_experiments::fig7::{fig7a, fig7b};
use dht_rcm_core::{routability, Geometry, RoutingGeometry, SystemSize};
use std::hint::black_box;

fn bench_single_point_at_2_100(c: &mut Criterion) {
    let size = SystemSize::power_of_two(100).expect("valid size");
    let mut group = c.benchmark_group("routability_n_2_100_q_30");
    for geometry in Geometry::all_with_default_parameters() {
        group.bench_with_input(
            BenchmarkId::from_parameter(geometry.name()),
            &geometry,
            |b, geometry| {
                b.iter(|| {
                    routability(black_box(geometry), black_box(size), black_box(0.3))
                        .expect("valid operating point")
                })
            },
        );
    }
    group.finish();
}

fn bench_fig7a_full_panel(c: &mut Criterion) {
    // The smoke panels: N = 2^100 over q = 0–80% in 20% steps, and q = 0.1
    // over N = 2^10 … 2^34, Symphony at (1, 1).
    let grid = dht_mathkit::percent_grid(80, 20);
    let size_bits = [10, 16, 22, 28, 34];
    let mut group = c.benchmark_group("fig7_panels");
    group.sample_size(10);
    group.bench_function("fig7a_panel_smoke_grid", |b| {
        b.iter(|| fig7a(100, black_box(&grid), 1, 1).expect("panel evaluates"))
    });
    group.bench_function("fig7b_panel_smoke_grid", |b| {
        b.iter(|| fig7b(0.1, black_box(&size_bits), 1, 1).expect("panel evaluates"))
    });
    group.finish();
}

criterion_group!(benches, bench_single_point_at_2_100, bench_fig7a_full_panel);
criterion_main!(benches);
