//! The implicit-backend perf trajectory: median ns/route, ns/hop and
//! routes/sec for generative routing tables, written into
//! `BENCH_routing.json` next to the materialized trajectories.
//!
//! Every entry times the path the trial engine runs: the whole pair slice
//! through a backend's lockstep `route_batch` at the default frontier width.
//! At `2^20` the bench measures **both backends over bit-identical tables**
//! (the materialized build and the implicit replay of the same construction
//! stream), so `materialized_batch_routing` vs `implicit_batch_routing`
//! entries isolate the cost of regenerating rows on demand. At `2^26` and
//! `2^28` — beyond the materialized ceiling — only the implicit backend
//! runs; those entries are the headline numbers the scale work moves.
//!
//! Environment: `BENCH_SMOKE=1` shrinks the measurement budget,
//! `BENCH_OUTPUT`/`BENCH_BASELINE` control the report — see
//! [`dht_bench::perf`].

use dht_bench::perf;
use dht_experiments::implicit_scale::build_implicit_overlay;
use dht_experiments::spec::build_full_overlay;
use dht_id::KeySpace;
use dht_overlay::{default_route_hop_limit, FailureMask, Overlay, RouteBatch, RouteOutcome};
use dht_sim::{PairSampler, SeedSequence};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// Construction seed shared by both backends: `build_full_overlay` feeds its
/// shared stream from `child(0)` of this seed, and the implicit twin replays
/// exactly that stream, so every measured table is bit-identical.
const SEED: u64 = 2006;

/// The two geometries the scale experiments headline.
const GEOMETRIES: [&str; 2] = ["ring", "xor"];

/// The frozen mask and alive pair set for one `(bits, q)` point — the same
/// seed convention as `overlay_routing`, so entries are comparable across
/// bench targets. Geometry-independent: callers build it once per point and
/// share it across geometries and backends.
fn workload_at(bits: u32, q: f64) -> (FailureMask, Vec<(u64, u64)>) {
    let space = KeySpace::new(bits).unwrap();
    let mask = FailureMask::sample(
        space,
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
    let (target_sample_ns, samples) = if smoke { (25e6, 5) } else { (100e6, 7) };
    let routes_per_sample = ((target_sample_ns / calibration_ns) as u64).clamp(64, 500_000);
    let median = perf::measure_median_ns(routes_per_sample, samples, &mut route_one);
    (median, routes_per_sample, samples)
}

/// Hops a route executed (drops at the hops they travelled).
fn hops_of(outcome: RouteOutcome) -> u64 {
    match outcome {
        RouteOutcome::Delivered { hops } | RouteOutcome::Dropped { hops, .. } => u64::from(hops),
        RouteOutcome::HopLimitExceeded { limit } => u64::from(limit),
        RouteOutcome::SourceFailed | RouteOutcome::TargetFailed => 0,
    }
}

fn print_entry(entry: &perf::RoutingBenchEntry) {
    println!(
        "{:<44} {:>12.1} ns/route {:>10.1} ns/hop {:>14.0} routes/sec",
        entry.key(),
        entry.median_ns_per_route,
        entry.median_ns_per_hop.unwrap_or(0.0),
        entry.routes_per_sec
    );
}

/// Measures the lockstep batch of whichever backend `overlay` exposes: each
/// timed invocation routes the whole pair slice through `route_batch` at the
/// default frontier width (the implicit backend with one warm row cache, as
/// each engine worker holds), and the median is per invocation over the
/// slice length.
fn measure_batch_point(
    name: &str,
    overlay: &dyn Overlay,
    mask: &FailureMask,
    pairs: &[(u64, u64)],
    q: f64,
    smoke: bool,
) -> perf::RoutingBenchEntry {
    let hop_limit = default_route_hop_limit(overlay);
    let mut batch = RouteBatch::default();
    let mut outcomes = Vec::with_capacity(pairs.len());
    let (bench, (median_per_batch, batches_per_sample, samples)) =
        if let Some(kernel) = overlay.kernel() {
            let lowered = kernel.compile_mask(mask);
            let words = lowered.words();
            let route_all = || {
                kernel.route_batch(&mut batch, words, pairs, hop_limit, &mut outcomes);
                black_box(&outcomes);
            };
            (
                "materialized_batch_routing",
                calibrated_median(smoke, route_all),
            )
        } else {
            let kernel = overlay
                .implicit_kernel()
                .expect("the implicit backend exports its kernel");
            let lowered = kernel.compile_mask(mask);
            let words = lowered.words();
            let mut cache = kernel.row_cache();
            let route_all = || {
                kernel.route_batch(
                    &mut batch,
                    &mut cache,
                    words,
                    pairs,
                    hop_limit,
                    &mut outcomes,
                );
                black_box(&outcomes);
            };
            (
                "implicit_batch_routing",
                calibrated_median(smoke, route_all),
            )
        };
    let total_hops: u64 = outcomes.iter().map(|&outcome| hops_of(outcome)).sum();
    let mean_hops = (total_hops as f64 / pairs.len().max(1) as f64).max(1e-9);
    let median = median_per_batch / pairs.len() as f64;
    let entry = perf::entry(
        bench,
        name,
        overlay.key_space().bits(),
        q,
        median,
        batches_per_sample * pairs.len() as u64,
        samples,
    )
    .with_ns_per_hop(median / mean_hops);
    print_entry(&entry);
    entry
}

fn main() {
    let smoke = perf::smoke_mode();
    let mut entries = Vec::new();

    for bits in [20u32, 26, 28] {
        for q in [0.0, 0.3] {
            let (mask, pairs) = workload_at(bits, q);
            for name in GEOMETRIES {
                // Both backends over bit-identical tables at 2^20; beyond the
                // materialized ceiling, implicit only.
                if bits == 20 {
                    let materialized = build_full_overlay(name, bits, SEED).unwrap();
                    entries.push(measure_batch_point(
                        name,
                        materialized.as_ref(),
                        &mask,
                        &pairs,
                        q,
                        smoke,
                    ));
                }
                let implicit =
                    build_implicit_overlay(name, bits, SeedSequence::new(SEED).child(0)).unwrap();
                entries.push(measure_batch_point(
                    name,
                    implicit.as_ref(),
                    &mask,
                    &pairs,
                    q,
                    smoke,
                ));
            }
        }
    }

    perf::merge_into_output(entries.clone()).expect("BENCH_routing.json is writable");
    perf::enforce_baseline(&entries);
}
