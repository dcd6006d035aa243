//! Traced rebuilds of the front doors.
//!
//! The front doors (`run_directory`, `ReportServer`) hide several layers
//! behind one call: `static_resilience_report_with`,
//! `StaticResilienceExperiment::run`, `implicit_scale::run`,
//! `failure_campaigns::run_point` and `live_churn::run_point` each build,
//! sample, lower, route and fold internally. To see where the time goes, the
//! functions here redo the same work from the public calls those functions
//! make, with a span around each call. The traced run then proves each
//! rebuild faithful by comparing its report bytes with the front door's.
//!
//! Every rebuild runs the trial engine's shard loop on one thread, which is
//! what the front door does at `threads = 1`: shards in order, one routing
//! frontier and pair buffer reused across shards, tallies folded in shard
//! order. Grid sweeps overlap points exactly like
//! [`dht_sim::sweep_failure_grid`] does.

use crate::trace::Ctx;
use dht_experiments::failure_campaigns::FailureCampaignPoint;
use dht_experiments::implicit_scale::{build_implicit_overlay, ImplicitScalePoint};
use dht_experiments::live_churn::{chain_predicted_routability_with, LiveChurnPoint, GEOMETRIES};
use dht_experiments::sparse_population::SparsePopulationRecord;
use dht_experiments::spec::{
    build_full_overlay, Backend, ExperimentSpec, ResiliencePoint, ScenarioReport, ScenarioSpec,
    StaticResilienceReport, REPORT_SCHEMA,
};
use dht_id::{KeySpace, Population};
use dht_markov::{ChainCache, ChainError, ChainFamily};
use dht_mathkit::stats::{wilson_interval, ConfidenceInterval, RunningStats};
use dht_overlay::can::CanStrategy;
use dht_overlay::chord::ChordStrategy;
use dht_overlay::kademlia::KademliaStrategy;
use dht_overlay::plaxton::PlaxtonStrategy;
use dht_overlay::symphony::SymphonyStrategy;
use dht_overlay::{
    default_route_hop_limit, CanOverlay, ChordOverlay, ChordVariant, FailureMask, FailurePlan,
    GeometryStrategy, ImplicitKernel, ImplicitRowCache, KademliaOverlay, KernelMask, LiveOverlay,
    Overlay, RouteBatch, RouteOutcome, RoutingKernel,
};
use dht_percolation::connected_components;
use dht_rcm_core::{classify, routability, Geometry, RcmError, SystemSize};
use dht_scenario::{Request, RequestEnvelope};
use dht_sim::{
    CampaignTally, LifetimeDistribution, LiveChurnConfig, LiveChurnExperiment, LiveChurnTally,
    PairSampler, SeedSequence, StaticResilienceResult, TrialTally, DEFAULT_PAIRS_PER_SHARD,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Errors are reported, not handled: any failure is a failed request.
pub type Result<T> = std::result::Result<T, String>;

/// The engine thread budget of every traced composition.
const TRACE_THREADS: usize = 1;

// ---------------------------------------------------------------------------
// One trial: the engine's shard loop
// ---------------------------------------------------------------------------

/// The two tallies the engine folds shards into.
trait Tally: Default {
    fn record(&mut self, outcome: RouteOutcome);
    fn merge(&mut self, other: &Self);
}

impl Tally for TrialTally {
    fn record(&mut self, outcome: RouteOutcome) {
        TrialTally::record(self, outcome);
    }
    fn merge(&mut self, other: &Self) {
        TrialTally::merge(self, other);
    }
}

impl Tally for CampaignTally {
    fn record(&mut self, outcome: RouteOutcome) {
        CampaignTally::record(self, outcome);
    }
    fn merge(&mut self, other: &Self) {
        CampaignTally::merge(self, other);
    }
}

/// The backend a trial routes through, with the implicit backend's
/// per-worker row cache.
enum Router<'o> {
    Plan(&'o RoutingKernel),
    Generated(&'o ImplicitKernel, Box<ImplicitRowCache>),
}

impl<'o> Router<'o> {
    fn of(overlay: &'o dyn Overlay) -> Self {
        if let Some(kernel) = overlay.kernel() {
            Router::Plan(kernel)
        } else {
            let kernel = overlay
                .implicit_kernel()
                .expect("every workload overlay exposes a routing kernel");
            Router::Generated(kernel, Box::new(kernel.row_cache()))
        }
    }

    fn compile_mask<'m>(&self, mask: &'m FailureMask) -> KernelMask<'m> {
        match self {
            Router::Plan(kernel) => kernel.compile_mask(mask),
            Router::Generated(kernel, _) => kernel.compile_mask(mask),
        }
    }

    fn route(
        &mut self,
        batch: &mut RouteBatch,
        words: &[u64],
        pairs: &[(u64, u64)],
        hop_limit: u32,
        outcomes: &mut Vec<RouteOutcome>,
    ) {
        match self {
            Router::Plan(kernel) => kernel.route_batch(batch, words, pairs, hop_limit, outcomes),
            Router::Generated(kernel, cache) => {
                kernel.route_batch(batch, cache, words, pairs, hop_limit, outcomes);
            }
        }
    }
}

/// Per-trial routing figures the callers attribute to a size or mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrialStats {
    /// Hops executed (delivered, dropped and hop-limited routes).
    pub hops: u64,
    /// Time inside `route_batch`.
    pub route_ns: u64,
    /// Implicit row-cache hits (0 on the materialized backend).
    pub cache_hits: u64,
    /// Implicit rows regenerated (0 on the materialized backend).
    pub cache_misses: u64,
}

fn hops_of(outcome: RouteOutcome) -> u64 {
    match outcome {
        RouteOutcome::Delivered { hops } | RouteOutcome::Dropped { hops, .. } => u64::from(hops),
        RouteOutcome::HopLimitExceeded { limit } => u64::from(limit),
        RouteOutcome::SourceFailed | RouteOutcome::TargetFailed => 0,
    }
}

/// `TrialEngine::run_trial` / `run_campaign_trial` at one thread: `None`
/// when fewer than two nodes survive.
fn trial<T: Tally>(
    ctx: Ctx<'_>,
    overlay: &dyn Overlay,
    mask: &FailureMask,
    pairs: u64,
    pair_seed: u64,
) -> Option<(T, TrialStats)> {
    let tracer = ctx.tracer();
    let sampler = ctx.span("sim.pair_sample", || PairSampler::new(mask))?;
    let hop_limit = default_route_hop_limit(overlay);
    let mut router = Router::of(overlay);
    let lowered = ctx.span("kernel.mask_lower", || router.compile_mask(mask));
    let words = lowered.words();

    let pairs = pairs.max(1);
    let shard_count = pairs.div_ceil(DEFAULT_PAIRS_PER_SHARD);
    let shard_seeds = SeedSequence::new(pair_seed);
    let mut batch = RouteBatch::default();
    let mut drawn = Vec::new();
    let mut outcomes = Vec::new();
    let mut merged = T::default();
    let mut stats = TrialStats::default();
    let mut delivered = 0u64;
    for shard in 0..shard_count {
        let mut rng = shard_seeds.child_rng(shard);
        let budget = if shard + 1 == shard_count {
            pairs - DEFAULT_PAIRS_PER_SHARD * (shard_count - 1)
        } else {
            DEFAULT_PAIRS_PER_SHARD
        };
        ctx.span("sim.pair_sample", || {
            sampler.sample_values_into(budget, &mut rng, &mut drawn);
        });
        let start = Instant::now();
        ctx.span("kernel.route", || {
            router.route(&mut batch, words, &drawn, hop_limit, &mut outcomes);
        });
        stats.route_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        ctx.span("sim.fold", || {
            let mut shard_tally = T::default();
            for &outcome in &outcomes {
                shard_tally.record(outcome);
                stats.hops += hops_of(outcome);
                delivered += u64::from(outcome.is_delivered());
            }
            merged.merge(&shard_tally);
        });
    }
    if let Router::Generated(_, cache) = &router {
        stats.cache_hits = cache.hits();
        stats.cache_misses = cache.misses();
        tracer.raise("implicit.cache_bytes", cache.resident_bytes() as f64);
    }
    tracer.add("kernel.routes", pairs as f64);
    tracer.add("kernel.delivered", delivered as f64);
    tracer.add("kernel.hops", stats.hops as f64);
    tracer.add("sim.shards", shard_count as f64);
    tracer.add("implicit.hits", stats.cache_hits as f64);
    tracer.add("implicit.misses", stats.cache_misses as f64);
    Some((merged, stats))
}

fn sample_mask(ctx: Ctx<'_>, sample: impl FnOnce() -> FailureMask) -> FailureMask {
    let mask = ctx.span("failure.mask_sample", sample);
    ctx.tracer().add("failure.masks", 1.0);
    ctx.tracer().raise(
        "failure.mask_bytes",
        std::mem::size_of_val(mask.words()) as f64,
    );
    mask
}

fn build<O>(ctx: Ctx<'_>, build: impl FnOnce() -> O) -> O {
    let overlay = ctx.span("overlay.build", build);
    ctx.tracer().add("overlay.builds", 1.0);
    overlay
}

/// Forces the lazy kernel compile (`Overlay::kernel`), or fetches the
/// implicit kernel, inside its own span.
fn compile(ctx: Ctx<'_>, overlay: &dyn Overlay) {
    let plan_bytes = ctx.span("kernel.compile", || {
        overlay.kernel().map(RoutingKernel::plan_bytes).or_else(|| {
            overlay
                .implicit_kernel()
                .map(ImplicitKernel::resident_bytes)
        })
    });
    ctx.tracer()
        .raise("kernel.plan_bytes", plan_bytes.unwrap_or(0) as f64);
}

// ---------------------------------------------------------------------------
// Static resilience: StaticResilienceExperiment::run, sweep_failure_grid and
// static_resilience_report_with
// ---------------------------------------------------------------------------

fn measure_point(
    ctx: Ctx<'_>,
    overlay: &dyn Overlay,
    q: f64,
    pairs: u64,
    trials: u32,
    seed: u64,
) -> StaticResilienceResult {
    let seeds = SeedSequence::new(seed);
    let trials = trials.max(1);
    let pairs = pairs.max(1);
    let mut delivered = 0u64;
    let mut attempted = 0u64;
    let mut hop_stats = RunningStats::new();
    let mut max_hops = 0u32;
    let mut surviving = RunningStats::new();
    for t in 0..u64::from(trials) {
        let mut failure_rng = seeds.child_rng(t * 2);
        let pair_seed = seeds.child(t * 2 + 1);
        let mask = sample_mask(ctx, || {
            FailureMask::sample_over(overlay.population(), q, &mut failure_rng)
        });
        surviving.push(mask.alive_count() as f64 / overlay.population().node_count() as f64);
        let Some((tally, _)) = trial::<TrialTally>(ctx, overlay, &mask, pairs, pair_seed) else {
            continue;
        };
        attempted += tally.attempted;
        delivered += tally.delivered;
        hop_stats.merge(&tally.hop_stats);
        max_hops = max_hops.max(tally.max_hops);
    }
    let routability = if attempted == 0 {
        0.0
    } else {
        delivered as f64 / attempted as f64
    };
    let confidence = if attempted == 0 {
        ConfidenceInterval {
            mean: 0.0,
            lower: 0.0,
            upper: 0.0,
            level: 0.95,
        }
    } else {
        wilson_interval(delivered, attempted, 0.95)
    };
    StaticResilienceResult {
        geometry: overlay.geometry_name().to_owned(),
        bits: overlay.key_space().bits(),
        failure_probability: q,
        occupied_nodes: overlay.population().node_count(),
        trials,
        pairs_attempted: attempted,
        pairs_delivered: delivered,
        routability,
        failed_path_percent: 100.0 * (1.0 - routability),
        confidence,
        mean_hops: hop_stats.mean(),
        max_hops,
        surviving_fraction: surviving.mean(),
    }
}

/// `sweep_failure_grid`: point `k` seeded with child `k` of `seed`, points
/// overlapped `cores / threads` at a time, results in grid order.
fn sweep(
    ctx: Ctx<'_>,
    overlay: &dyn Overlay,
    grid: &[f64],
    pairs: u64,
    trials: u32,
    seed: u64,
) -> Vec<StaticResilienceResult> {
    let seeds = SeedSequence::new(seed);
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    let in_flight = (cores / TRACE_THREADS).max(1);
    let points: Vec<(u64, f64)> = (0u64..).zip(grid.iter().copied()).collect();
    let mut results = Vec::with_capacity(grid.len());
    for chunk in points.chunks(in_flight) {
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunk
                .iter()
                .map(|&(k, q)| {
                    scope.spawn(move || {
                        measure_point(ctx, overlay, q, pairs, trials, seeds.child(k))
                    })
                })
                .collect();
            results.extend(
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("sweep worker panicked")),
            );
        });
    }
    results
}

fn analytic_geometry(name: &str) -> Result<Geometry> {
    Ok(match name {
        "ring" => Geometry::ring(),
        "xor" => Geometry::xor(),
        "tree" => Geometry::tree(),
        "hypercube" => Geometry::hypercube(),
        "symphony" => Geometry::symphony(1, 1).map_err(|err| format!("symphony model: {err}"))?,
        other => return Err(format!("unknown geometry {other:?}")),
    })
}

/// Chain solves through `cache`, one span per call.
fn timed_solves<'a>(
    ctx: Ctx<'a>,
    cache: &'a mut ChainCache,
) -> impl FnMut(ChainFamily, u32, f64) -> std::result::Result<f64, ChainError> + 'a {
    move |family, h, q| {
        let solves = cache.solves();
        let hits = cache.hits();
        let probability = ctx.span("markov.chain_solve", || {
            cache.success_probability(family, h, q)
        });
        ctx.tracer()
            .add("markov.solves", (cache.solves() - solves) as f64);
        ctx.tracer()
            .add("markov.hits", (cache.hits() - hits) as f64);
        probability
    }
}

/// `static_resilience_report_with`, traced.
#[allow(clippy::too_many_arguments)]
fn static_resilience(
    ctx: Ctx<'_>,
    geometry: &str,
    bits: u32,
    grid: &[f64],
    pairs: u64,
    trials: u32,
    seed: u64,
    overlay: &dyn Overlay,
    chains: &mut ChainCache,
) -> Result<StaticResilienceReport> {
    let model = analytic_geometry(geometry)?;
    let swept = sweep(
        ctx,
        overlay,
        grid,
        pairs,
        trials,
        SeedSequence::new(seed).child(1),
    );
    let size = SystemSize::power_of_two(bits).map_err(|err| format!("system size: {err}"))?;
    let mut solve = timed_solves(ctx, chains);
    let mut points = Vec::with_capacity(swept.len());
    for (&q, simulated) in grid.iter().zip(swept) {
        let analytical = match ctx.span("analysis", || routability(&model, size, q)) {
            Ok(report) => Some((report.routability, report.failed_path_percent)),
            Err(RcmError::DegenerateSystem { .. }) => None,
            Err(other) => return Err(format!("routability: {other}")),
        };
        let chain_predicted = chain_predicted_routability_with(geometry, bits, q, &mut solve)
            .map_err(|err| format!("chain prediction: {err}"))?;
        points.push(ResiliencePoint {
            failure_probability: q,
            analytical_routability: analytical.map(|(routable, _)| routable),
            analytical_failed_percent: analytical.map(|(_, failed)| failed),
            chain_predicted_routability: chain_predicted,
            simulated,
        });
    }
    let probe_q = grid.iter().copied().find(|&q| q > 0.0).unwrap_or(0.1);
    let scalability = ctx
        .span("analysis", || classify(&model, probe_q))
        .map_err(|err| format!("classification: {err}"))?;
    Ok(StaticResilienceReport {
        geometry: geometry.to_owned(),
        bits,
        points,
        scalability,
    })
}

fn build_static_overlay(
    ctx: Ctx<'_>,
    geometry: &str,
    bits: u32,
    seed: u64,
    backend: Backend,
) -> Result<Box<dyn Overlay>> {
    let overlay = build(ctx, || match backend {
        Backend::Materialized => {
            build_full_overlay(geometry, bits, seed).map_err(|err| format!("overlay: {err}"))
        }
        Backend::Implicit => {
            build_implicit_overlay(geometry, bits, SeedSequence::new(seed).child(0))
                .map_err(|err| format!("implicit overlay: {err}"))
        }
    })?;
    compile(ctx, overlay.as_ref());
    Ok(overlay)
}

// ---------------------------------------------------------------------------
// The other batch families
// ---------------------------------------------------------------------------

/// `implicit_scale::run`, traced. Per-size routing figures land in the
/// `implicit.*.<bits>` counters.
fn implicit_scale(
    ctx: Ctx<'_>,
    geometry: &str,
    bits_list: &[u32],
    q: f64,
    pairs: u64,
    seed: u64,
) -> Result<Vec<ImplicitScalePoint>> {
    let tracer = ctx.tracer();
    let seeds = SeedSequence::new(seed);
    let stream_seed = seeds.child(0);
    let measurement = SeedSequence::new(seeds.child(1));
    let mut points = Vec::with_capacity(bits_list.len());
    for (index, &bits) in (0u64..).zip(bits_list) {
        let overlay = build(ctx, || build_implicit_overlay(geometry, bits, stream_seed))
            .map_err(|err| format!("implicit overlay: {err}"))?;
        compile(ctx, overlay.as_ref());
        let mut mask_rng = ChaCha8Rng::seed_from_u64(measurement.child(2 * index));
        let mask = sample_mask(ctx, || {
            FailureMask::sample(overlay.key_space(), q, &mut mask_rng)
        });
        let pair_seed = measurement.child(2 * index + 1);
        let (tally, stats) = trial::<TrialTally>(ctx, overlay.as_ref(), &mask, pairs, pair_seed)
            .ok_or_else(|| format!("q = {q} leaves fewer than two survivors at 2^{bits}"))?;
        // Per-hop cost differs between geometries, so it is kept per
        // geometry and size; cache hits are pooled per size.
        tracer.add(
            &format!("implicit.hops.{geometry}.{bits}"),
            stats.hops as f64,
        );
        tracer.add(
            &format!("implicit.route_ns.{geometry}.{bits}"),
            stats.route_ns as f64,
        );
        tracer.add(&format!("implicit.hits.{bits}"), stats.cache_hits as f64);
        tracer.add(
            &format!("implicit.misses.{bits}"),
            stats.cache_misses as f64,
        );
        tracer.raise(
            "implicit.resident_bytes",
            (overlay.resident_bytes() as f64) + tracer.counter("implicit.cache_bytes"),
        );
        points.push(ImplicitScalePoint {
            geometry: geometry.to_owned(),
            bits,
            node_count: overlay.node_count(),
            failure_probability: q,
            pairs: tally.attempted,
            routability_percent: 100.0 * tally.routability(),
            mean_hops: tally.hop_stats.mean(),
            max_hops: tally.max_hops,
            overlay_resident_bytes: overlay.resident_bytes() as u64,
            mask_resident_bytes: std::mem::size_of_val(mask.words()) as u64,
            implied_edges: overlay.edge_count(),
        });
    }
    Ok(points)
}

/// The `FailureCampaign` parameters of a spec.
struct Campaign<'s> {
    bits: u32,
    geometries: &'s [String],
    plans: &'s [FailurePlan],
    failed_fractions: &'s [f64],
    pairs: u64,
    patterns: u32,
}

/// `failure_campaigns::run_grid`, traced.
fn failure_campaign(
    ctx: Ctx<'_>,
    campaign: &Campaign<'_>,
    seed: u64,
) -> Result<Vec<FailureCampaignPoint>> {
    let seeds = SeedSequence::new(seed);
    let mut points = Vec::new();
    let mut point_index = 0u64;
    for geometry in campaign.geometries {
        let overlay =
            build_static_overlay(ctx, geometry, campaign.bits, seed, Backend::Materialized)?;
        for plan in campaign.plans {
            for &fraction in campaign.failed_fractions {
                let point_seed = seeds.child(point_index + 1);
                points.push(campaign_point(
                    ctx,
                    campaign,
                    overlay.as_ref(),
                    plan,
                    fraction,
                    point_seed,
                ));
                point_index += 1;
            }
        }
    }
    Ok(points)
}

/// `failure_campaigns::run_point`, traced.
fn campaign_point(
    ctx: Ctx<'_>,
    campaign: &Campaign<'_>,
    overlay: &dyn Overlay,
    plan: &FailurePlan,
    fraction: f64,
    seed: u64,
) -> FailureCampaignPoint {
    let plan = plan.with_fraction(fraction);
    let seeds = SeedSequence::new(seed);
    let mut merged = CampaignTally::default();
    let mut patterns_measured = 0u32;
    let mut realized_sum = 0.0;
    let mut giant_sum = 0.0;
    for pattern in 0..u64::from(campaign.patterns) {
        let mask = sample_mask(ctx, || plan.lower(overlay, seeds.child(2 * pattern)));
        ctx.tracer().add("faults.plans_lowered", 1.0);
        realized_sum += mask.failed_count() as f64 / mask.population_size().max(1) as f64;
        giant_sum += ctx.span("percolation.components", || {
            connected_components(overlay, &mask).giant_component_fraction()
        });
        ctx.tracer().add("sim.campaign_trials", 1.0);
        if let Some((tally, _)) = trial::<CampaignTally>(
            ctx,
            overlay,
            &mask,
            campaign.pairs,
            seeds.child(2 * pattern + 1),
        ) {
            merged.merge(&tally);
            patterns_measured += 1;
        }
    }
    let patterns = f64::from(campaign.patterns);
    let attempted = merged.trial.attempted;
    FailureCampaignPoint {
        geometry: overlay.geometry_name().to_owned(),
        bits: campaign.bits,
        plan: plan.name().to_owned(),
        target_fraction: fraction,
        realized_failed_fraction: realized_sum / patterns,
        delivered_fraction: merged.trial.routability(),
        dropped_fraction: if attempted == 0 {
            0.0
        } else {
            merged.trial.dropped as f64 / attempted as f64
        },
        mean_hops: merged.trial.hop_stats.mean(),
        stuck_depth_mean: merged.stuck_depth.mean_depth(),
        stuck_depth_max: merged.stuck_depth.max_depth().unwrap_or(0),
        giant_component_fraction: giant_sum / patterns,
        attempted,
        patterns_measured,
    }
}

/// The `LiveChurn` parameters of a spec.
struct Churn<'s> {
    bits: u32,
    session_times: &'s [f64],
    lookup_rates: &'s [f64],
    mean_downtime: f64,
    duration: f64,
    warmup: f64,
    replicas: u32,
}

/// `live_churn::run_grid`, traced.
fn live_churn(ctx: Ctx<'_>, churn: &Churn<'_>, seed: u64) -> Result<Vec<LiveChurnPoint>> {
    let seeds = SeedSequence::new(seed);
    let mut points = Vec::new();
    let mut point_index = 0u64;
    for &session_time in churn.session_times {
        for &lookup_rate in churn.lookup_rates {
            for geometry in GEOMETRIES {
                for repair in [false, true] {
                    let point_seed = seeds.child(point_index);
                    points.push(churn_point(
                        ctx,
                        churn,
                        geometry,
                        session_time,
                        lookup_rate,
                        repair,
                        point_seed,
                    )?);
                    point_index += 1;
                }
            }
        }
    }
    Ok(points)
}

fn run_live<S: GeometryStrategy + Clone>(
    ctx: Ctx<'_>,
    experiment: &LiveChurnExperiment,
    space: KeySpace,
    strategy: S,
) -> LiveChurnTally {
    experiment.run(move |master_seed| {
        build(ctx, || {
            LiveOverlay::build(Population::full(space), strategy.clone(), master_seed)
                .expect("all catalogue geometries support live churn")
        })
    })
}

/// `live_churn::run_point`, traced: the event loop of each mode in its own
/// span, overlay builds nested below it.
fn churn_point(
    ctx: Ctx<'_>,
    churn: &Churn<'_>,
    geometry: &str,
    mean_session_time: f64,
    lookup_rate: f64,
    repair: bool,
    seed: u64,
) -> Result<LiveChurnPoint> {
    let space = KeySpace::new(churn.bits).map_err(|err| format!("key space: {err}"))?;
    let lifetime = LifetimeDistribution::exponential(mean_session_time)
        .map_err(|err| format!("lifetime: {err}"))?;
    let downtime = LifetimeDistribution::exponential(churn.mean_downtime)
        .map_err(|err| format!("downtime: {err}"))?;
    let config = LiveChurnConfig::new(lifetime, downtime, churn.duration, lookup_rate)
        .map_err(|err| format!("churn config: {err}"))?
        .with_warmup(churn.warmup)
        .with_repair(repair)
        .with_replicas(churn.replicas)
        .with_threads(TRACE_THREADS)
        .with_seed(seed);
    let q_star = config.stationary_failure_fraction();
    let experiment = LiveChurnExperiment::new(config);
    let mode = if repair { "live.repair" } else { "live.frozen" };
    let tally = ctx.nest(mode, |ctx| match geometry {
        "ring" => Ok(run_live(
            ctx,
            &experiment,
            space,
            ChordStrategy::new(ChordVariant::Deterministic),
        )),
        "xor" => Ok(run_live(ctx, &experiment, space, KademliaStrategy)),
        "tree" => Ok(run_live(ctx, &experiment, space, PlaxtonStrategy)),
        "hypercube" => Ok(run_live(ctx, &experiment, space, CanStrategy)),
        "symphony" => Ok(run_live(
            ctx,
            &experiment,
            space,
            SymphonyStrategy::new(2, 2),
        )),
        other => Err(format!("unknown live-churn geometry {other}")),
    })?;
    let tracer = ctx.tracer();
    tracer.add("sim.events", tally.events as f64);
    tracer.add(&format!("{mode}.events"), tally.events as f64);
    tracer.add("live.rows_repaired", tally.repairs as f64);
    let predicted = if repair {
        None
    } else {
        let mut chains = ChainCache::new();
        chain_predicted_routability_with(
            geometry,
            churn.bits,
            q_star,
            timed_solves(ctx, &mut chains),
        )
        .map_err(|err| format!("chain prediction: {err}"))?
    };
    Ok(LiveChurnPoint {
        geometry: geometry.to_owned(),
        bits: churn.bits,
        mean_session_time,
        mean_downtime: churn.mean_downtime,
        lookup_rate,
        repair,
        stationary_failure_fraction: q_star,
        observed_dead_fraction: tally.dead_fraction(),
        predicted_routability: predicted,
        delivery_ratio: tally.delivery_ratio(),
        mean_hops: tally.hop_stats.mean(),
        attempted: tally.attempted,
        events: tally.events,
        repairs: tally.repairs,
    })
}

/// `sparse_population::sparse_population_resilience`, traced.
fn sparse_population(
    ctx: Ctx<'_>,
    bits: u32,
    occupied: u64,
    include_full_baseline: bool,
    pairs: u64,
    grid: &[f64],
    seed: u64,
) -> Result<Vec<SparsePopulationRecord>> {
    let space = KeySpace::new(bits).map_err(|err| format!("key space: {err}"))?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sparse = ctx
        .span("overlay.build", || {
            Population::sample_uniform(space, occupied, &mut rng)
        })
        .map_err(|err| format!("population: {err}"))?;
    let mut populations = vec![sparse];
    if include_full_baseline {
        populations.push(Population::full(space));
    }
    let mut records = Vec::new();
    for population in populations {
        let ring = build(ctx, || {
            ChordOverlay::build_over(population.clone(), ChordVariant::Deterministic, &mut rng)
        })
        .map_err(|err| format!("sparse overlay: {err}"))?;
        records.extend(sparse_measure(ctx, &ring, pairs, grid, seed));
        let xor = build(ctx, || {
            KademliaOverlay::build_over(population.clone(), &mut rng)
        })
        .map_err(|err| format!("sparse overlay: {err}"))?;
        records.extend(sparse_measure(ctx, &xor, pairs, grid, seed));
        let hypercube = build(ctx, || CanOverlay::build_over(population))
            .map_err(|err| format!("sparse overlay: {err}"))?;
        records.extend(sparse_measure(ctx, &hypercube, pairs, grid, seed));
    }
    Ok(records)
}

fn sparse_measure(
    ctx: Ctx<'_>,
    overlay: &dyn Overlay,
    pairs: u64,
    grid: &[f64],
    seed: u64,
) -> Vec<SparsePopulationRecord> {
    compile(ctx, overlay);
    grid.iter()
        .zip(sweep(ctx, overlay, grid, pairs, 1, seed))
        .map(|(&q, result)| SparsePopulationRecord {
            geometry: result.geometry.clone(),
            bits: result.bits,
            occupied: result.occupied_nodes,
            occupancy: overlay.population().occupancy(),
            failure_probability: q,
            routability: result.routability,
            failed_path_percent: result.failed_path_percent,
            mean_hops: result.mean_hops,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Front doors
// ---------------------------------------------------------------------------

fn envelope(spec: &ScenarioSpec, payload: Value) -> ScenarioReport {
    ScenarioReport {
        schema: REPORT_SCHEMA.to_owned(),
        name: spec.name.clone(),
        family: spec.family().name().to_owned(),
        spec_hash: spec.content_hash_hex(),
        seed: spec.seed,
        payload,
    }
}

/// `run_spec` for the families the batch workloads use, traced.
///
/// # Errors
///
/// Returns a message for families no workload runs and for any failure the
/// front door would report.
pub fn batch_report(ctx: Ctx<'_>, spec: &ScenarioSpec) -> Result<ScenarioReport> {
    let seed = spec.seed;
    let payload = match &spec.experiment {
        ExperimentSpec::StaticResilience {
            geometry,
            bits,
            grid,
            pairs,
            trials,
        } => {
            let overlay = build_static_overlay(ctx, geometry, *bits, seed, spec.backend())?;
            let mut chains = ChainCache::new();
            let report = static_resilience(
                ctx,
                geometry,
                *bits,
                grid,
                *pairs,
                *trials,
                seed,
                overlay.as_ref(),
                &mut chains,
            )?;
            report.to_value()
        }
        ExperimentSpec::ImplicitScale {
            geometry,
            bits_list,
            failure_probability,
            pairs,
        } => {
            implicit_scale(ctx, geometry, bits_list, *failure_probability, *pairs, seed)?.to_value()
        }
        ExperimentSpec::FailureCampaign {
            bits,
            geometries,
            plans,
            failed_fractions,
            pairs,
            patterns,
        } => {
            let campaign = Campaign {
                bits: *bits,
                geometries,
                plans,
                failed_fractions,
                pairs: *pairs,
                patterns: *patterns,
            };
            failure_campaign(ctx, &campaign, seed)?.to_value()
        }
        ExperimentSpec::LiveChurn {
            bits,
            session_times,
            lookup_rates,
            mean_downtime,
            duration,
            warmup,
            replicas,
        } => {
            let churn = Churn {
                bits: *bits,
                session_times,
                lookup_rates,
                mean_downtime: *mean_downtime,
                duration: *duration,
                warmup: *warmup,
                replicas: *replicas,
            };
            live_churn(ctx, &churn, seed)?.to_value()
        }
        ExperimentSpec::SparsePopulation {
            bits,
            occupied,
            include_full_baseline,
            pairs,
            grid,
        } => sparse_population(
            ctx,
            *bits,
            *occupied,
            *include_full_baseline,
            *pairs,
            grid,
            seed,
        )?
        .to_value(),
        other => return Err(format!("family {} is in no workload", other.family())),
    };
    Ok(envelope(spec, payload))
}

/// `ReportServer` for `Query` requests, traced: the memo table, the overlay
/// cache (kernels compiled at insert) and the cross-query chain cache, with
/// the same keys and the same response framing.
pub struct ComposedServer {
    reports: HashMap<u64, String>,
    overlays: HashMap<(String, u32, u64, Backend), Arc<dyn Overlay>>,
    chains: ChainCache,
}

impl Default for ComposedServer {
    fn default() -> Self {
        ComposedServer::new()
    }
}

impl ComposedServer {
    /// An empty server.
    #[must_use]
    pub fn new() -> Self {
        ComposedServer {
            reports: HashMap::new(),
            overlays: HashMap::new(),
            chains: ChainCache::new(),
        }
    }

    /// Answers one request line with the response line the real server
    /// writes (without the newline).
    ///
    /// # Errors
    ///
    /// Returns a message for anything but a valid `Query` request.
    pub fn handle_line(&mut self, ctx: Ctx<'_>, line: &str) -> Result<String> {
        let request: RequestEnvelope = ctx
            .span("spec.parse", || serde_json::from_str(line))
            .map_err(|err| format!("request: {err}"))?;
        let Request::Query { query } = request.request else {
            return Err("only Query requests are composed".to_owned());
        };
        let spec = query.to_spec();
        let hash = ctx
            .span("spec.parse", || {
                spec.validate().map(|()| spec.content_hash())
            })
            .map_err(|err| format!("spec: {err}"))?;
        if let Some(cached) = self.reports.get(&hash) {
            return Ok(format!("{{\"id\":{},\"ok\":{cached}}}", request.id));
        }
        let ExperimentSpec::StaticResilience {
            geometry,
            bits,
            grid,
            pairs,
            trials,
        } = &spec.experiment
        else {
            return Err("queries desugar to static resilience".to_owned());
        };
        let key = (geometry.clone(), *bits, spec.seed, spec.backend());
        let overlay = match self.overlays.get(&key) {
            Some(overlay) => Arc::clone(overlay),
            None => {
                let overlay: Arc<dyn Overlay> = Arc::from(build_static_overlay(
                    ctx,
                    geometry,
                    *bits,
                    spec.seed,
                    spec.backend(),
                )?);
                self.overlays.insert(key, Arc::clone(&overlay));
                overlay
            }
        };
        let report = static_resilience(
            ctx,
            geometry,
            *bits,
            grid,
            *pairs,
            *trials,
            spec.seed,
            overlay.as_ref(),
            &mut self.chains,
        )?;
        let json = ctx
            .span("spec.serialize", || {
                serde_json::to_string(&envelope(&spec, report.to_value()))
            })
            .map_err(|err| format!("report: {err}"))?;
        self.reports.insert(hash, json.clone());
        Ok(format!("{{\"id\":{},\"ok\":{json}}}", request.id))
    }
}
