//! Micro-benchmarks of single-message greedy routing on each overlay, with
//! and without failures — the scalar oracle every equivalence suite checks
//! against — plus the machine-readable perf trajectory: per-geometry median
//! ns/route and routes/sec at `2^16` and `2^20` for the scalar path
//! (`overlay_routing` entries) and for the compiled kernel's lockstep batch
//! driving the whole pair workload per invocation, the path the trial engine
//! runs (`batch_routing` entries, which also record median ns/hop), written
//! to `BENCH_routing.json` and (when `BENCH_BASELINE` is set) enforced
//! against a committed baseline.
//!
//! Environment: `BENCH_SMOKE=1` shrinks the measurement budget,
//! `BENCH_OUTPUT`/`BENCH_BASELINE` control the report — see
//! [`dht_bench::perf`].

use criterion::{criterion_group, BenchmarkId, Criterion};
use dht_bench::perf;
use dht_overlay::{
    default_route_hop_limit, route, CanOverlay, ChordOverlay, ChordVariant, FailureMask,
    KademliaOverlay, Overlay, PlaxtonOverlay, RouteBatch, RouteOutcome, SymphonyOverlay,
};
use dht_sim::PairSampler;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

const BITS: u32 = 14;

/// Geometry names in trajectory order.
const GEOMETRIES: [&str; 5] = ["tree", "hypercube", "xor", "ring", "symphony"];

/// Builds one overlay; geometries are built one at a time so the `2^20`
/// measurements never hold two ~300 MB arenas at once.
fn build_overlay(name: &str, bits: u32) -> Box<dyn Overlay> {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    match name {
        "tree" => Box::new(PlaxtonOverlay::build(bits, &mut rng).unwrap()),
        "hypercube" => Box::new(CanOverlay::build(bits).unwrap()),
        "xor" => Box::new(KademliaOverlay::build(bits, &mut rng).unwrap()),
        "ring" => Box::new(ChordOverlay::build(bits, ChordVariant::Deterministic).unwrap()),
        "symphony" => Box::new(SymphonyOverlay::build(bits, 1, 1, &mut rng).unwrap()),
        other => panic!("unknown geometry {other}"),
    }
}

fn overlays() -> Vec<(&'static str, Box<dyn Overlay>)> {
    GEOMETRIES
        .iter()
        .map(|&name| (name, build_overlay(name, BITS)))
        .collect()
}

fn bench_routing(c: &mut Criterion, group_name: &str, q: f64) {
    let overlays = overlays();
    let mut group = c.benchmark_group(group_name);
    for (name, overlay) in &overlays {
        let space = overlay.key_space();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mask = FailureMask::sample(space, q, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(name), overlay, |b, overlay| {
            let mut pair_rng = ChaCha8Rng::seed_from_u64(13);
            b.iter(|| {
                let source = space.wrap(pair_rng.gen::<u64>());
                let target = space.wrap(pair_rng.gen::<u64>());
                black_box(route(overlay.as_ref(), source, target, &mask))
            })
        });
    }
    group.finish();
}

fn bench_routing_intact(c: &mut Criterion) {
    bench_routing(c, "route_one_message_intact_2_14", 0.0);
}

fn bench_routing_under_failure(c: &mut Criterion) {
    bench_routing(c, "route_one_message_q30_2_14", 0.3);
}

criterion_group!(benches, bench_routing_intact, bench_routing_under_failure);

/// The frozen mask and alive pair set one `(overlay, q)` trajectory point
/// is measured over. Both trajectories (scalar and batch) are built from
/// the *same* seeds, so their entries are directly comparable — the seeds
/// live here, in one place, to keep that invariant structural.
fn trajectory_workload(overlay: &dyn Overlay, q: f64) -> (FailureMask, Vec<(u64, u64)>) {
    let bits = overlay.key_space().bits();
    let mask = FailureMask::sample(
        overlay.key_space(),
        q,
        &mut ChaCha8Rng::seed_from_u64(0x6D61_736B ^ u64::from(bits)),
    );
    let sampler = PairSampler::new(&mask).expect("enough survivors at these sizes");
    let mut pair_rng = ChaCha8Rng::seed_from_u64(0x7061_6972 ^ u64::from(bits));
    let pairs: Vec<(u64, u64)> = (0..4096)
        .map(|_| sampler.sample_values(&mut pair_rng))
        .collect();
    (mask, pairs)
}

/// Calibrates routes-per-sample to the mode's wall-clock target and returns
/// `(median_ns_per_route, routes_per_sample, samples)`.
fn calibrated_median<F: FnMut()>(smoke: bool, mut route_one: F) -> (f64, u64, u64) {
    let calibration_ns = perf::measure_median_ns(64, 1, &mut route_one).max(1.0);
    // Smoke needs five samples of ~25 ms each: the batch entries sit at
    // tens of nanoseconds per route, where a median of three 10 ms samples
    // jitters past the regression gate's tolerance on a noisy host.
    let (target_sample_ns, samples) = if smoke { (25e6, 5) } else { (100e6, 7) };
    let routes_per_sample = ((target_sample_ns / calibration_ns) as u64).clamp(64, 500_000);
    let median = perf::measure_median_ns(routes_per_sample, samples, &mut route_one);
    (median, routes_per_sample, samples)
}

/// Measures one `(geometry, bits, q)` trajectory point of the scalar path:
/// routes alive pairs (pre-drawn by rank from the bitset, so the timed loop
/// is route-only) and records the median ns/route.
fn measure_point(
    name: &str,
    overlay: &dyn Overlay,
    q: f64,
    smoke: bool,
) -> perf::RoutingBenchEntry {
    let space = overlay.key_space();
    let (mask, pairs) = trajectory_workload(overlay, q);
    let mut cursor = 0usize;
    let route_one = || {
        let (source, target) = pairs[cursor];
        cursor = (cursor + 1) % pairs.len();
        black_box(route(
            overlay,
            space.wrap(source),
            space.wrap(target),
            &mask,
        ));
    };
    let (median, routes_per_sample, samples) = calibrated_median(smoke, route_one);
    let entry = perf::entry(
        "overlay_routing",
        name,
        space.bits(),
        q,
        median,
        routes_per_sample,
        samples,
    );
    println!(
        "{:<40} {:>12.1} ns/route {:>14.0} routes/sec",
        entry.key(),
        entry.median_ns_per_route,
        entry.routes_per_sec
    );
    entry
}

/// Mean executed hops over one batch run's outcomes (drops included at the
/// hops they travelled): the divisor that turns ns/route into ns/hop.
fn mean_executed_hops(outcomes: &[RouteOutcome]) -> f64 {
    let total_hops: u64 = outcomes
        .iter()
        .map(|outcome| match *outcome {
            RouteOutcome::Delivered { hops } | RouteOutcome::Dropped { hops, .. } => {
                u64::from(hops)
            }
            RouteOutcome::HopLimitExceeded { limit } => u64::from(limit),
            RouteOutcome::SourceFailed | RouteOutcome::TargetFailed => 0,
        })
        .sum();
    (total_hops as f64 / outcomes.len().max(1) as f64).max(1e-9)
}

/// Measures one `(geometry, bits, q)` point of the lockstep batch
/// trajectory: the same mask and pair workload as [`measure_point`], but
/// each timed invocation drives the *entire* pair slice through
/// [`RoutingKernel::route_batch`] — software-prefetched plan rows,
/// word-parallel aliveness, retire-and-refill compaction — and the median is
/// the per-invocation median divided by the slice length.
///
/// [`RoutingKernel::route_batch`]: dht_overlay::RoutingKernel::route_batch
fn measure_batch_point(
    name: &str,
    overlay: &dyn Overlay,
    q: f64,
    smoke: bool,
) -> perf::RoutingBenchEntry {
    let (mask, pairs) = trajectory_workload(overlay, q);
    let kernel = overlay.kernel().expect("all five geometries compile");
    let lowered = kernel.compile_mask(&mask);
    let words = lowered.words();
    let hop_limit = default_route_hop_limit(overlay);

    let mut batch = RouteBatch::default();
    let mut outcomes = Vec::with_capacity(pairs.len());
    let route_all = || {
        kernel.route_batch(&mut batch, words, &pairs, hop_limit, &mut outcomes);
        black_box(&outcomes);
    };
    let (median_per_batch, batches_per_sample, samples) = calibrated_median(smoke, route_all);
    let mean_hops = mean_executed_hops(&outcomes);
    let median = median_per_batch / pairs.len() as f64;
    let entry = perf::entry(
        "batch_routing",
        name,
        overlay.key_space().bits(),
        q,
        median,
        batches_per_sample * pairs.len() as u64,
        samples,
    )
    .with_ns_per_hop(median / mean_hops);
    println!(
        "{:<40} {:>12.1} ns/route {:>10.1} ns/hop {:>14.0} routes/sec",
        entry.key(),
        entry.median_ns_per_route,
        entry.median_ns_per_hop.unwrap_or(0.0),
        entry.routes_per_sec
    );
    entry
}

/// Measures the perf trajectory at `2^16` and `2^20` — the scalar path and
/// the compiled kernel's batch side by side — merges it into
/// `BENCH_routing.json`, and enforces the committed baseline when asked.
fn perf_trajectory() {
    let smoke = perf::smoke_mode();
    let mut entries = Vec::new();
    for bits in [16u32, 20] {
        for name in GEOMETRIES {
            let overlay = build_overlay(name, bits);
            for q in [0.0, 0.3] {
                entries.push(measure_point(name, overlay.as_ref(), q, smoke));
                entries.push(measure_batch_point(name, overlay.as_ref(), q, smoke));
            }
        }
    }
    perf::merge_into_output(entries.clone()).expect("BENCH_routing.json is writable");
    perf::enforce_baseline(&entries);
}

fn main() {
    benches();
    perf_trajectory();
}
