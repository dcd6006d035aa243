//! Experiment: **failure campaigns** — the five geometries under structured
//! fault injection ([`dht_overlay::faults`]), with graceful-degradation
//! reporting.
//!
//! The paper's static-resilience measurements fail nodes independently and
//! uniformly; this harness sweeps the same overlays across *structured*
//! [`FailurePlan`]s — correlated identifier spans, bucket-aligned subtrees,
//! an adaptive in-degree adversary and epidemic cascades — at matched failed
//! fractions, so the cost of realistic fault geometry is read directly
//! against the uniform baseline. Each grid point reports the delivered and
//! dropped fractions, hop statistics, the stuck-depth distribution of
//! dropped messages ([`dht_sim::StuckDepthHistogram`]) and the alive-graph
//! giant-component fraction from `dht-percolation` — the
//! connectivity-vs-routability contrast of the paper, now per fault shape.

use crate::spec::{build_overlay, Backend, SpecError};
use dht_overlay::fanout::{self, map_ordered};
use dht_overlay::{FailurePlan, Overlay};
use dht_percolation::connected_components;
use dht_sim::{CampaignTally, SeedSequence, TrialEngine};
use serde::{Deserialize, Serialize};

/// One measured grid point: a geometry under one plan at one target failed
/// fraction, averaged over the configured number of failure patterns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureCampaignPoint {
    /// Geometry name (`ring`, `xor`, `tree`, `hypercube`, `symphony`).
    pub geometry: String,
    /// Identifier-space bits (the population is full, `N = 2^bits`).
    pub bits: u32,
    /// Plan kind (`uniform`, `segment_correlated`, `prefix_subtree`,
    /// `adaptive_adversary`, `cascade`).
    pub plan: String,
    /// Target failed (or, for cascades, seeding) fraction of the sweep.
    pub target_fraction: f64,
    /// Mean realized failed fraction over the patterns (exact for the
    /// budgeted plans, stochastic for uniform, above target for cascades).
    pub realized_failed_fraction: f64,
    /// Delivered fraction over all measured pairs.
    pub delivered_fraction: f64,
    /// Dropped fraction over all measured pairs.
    pub dropped_fraction: f64,
    /// Mean hop count over delivered messages.
    pub mean_hops: f64,
    /// Mean hop depth at which dropped messages got stuck.
    pub stuck_depth_mean: f64,
    /// Deepest stuck depth observed (0 when nothing dropped).
    pub stuck_depth_max: u32,
    /// Mean giant-component fraction of the alive overlay graph — the
    /// connectivity ceiling the delivered fraction degrades against.
    pub giant_component_fraction: f64,
    /// Pairs routed in total across the measured patterns.
    pub attempted: u64,
    /// Failure patterns with at least two survivors (only these route).
    pub patterns_measured: u32,
}

/// Checks every knob of a campaign before a sweep.
fn validate(
    geometries: &[String],
    plans: &[FailurePlan],
    failed_fractions: &[f64],
    pairs: u64,
    patterns: u32,
) -> Result<(), SpecError> {
    let missing = [
        (geometries.is_empty(), "at least one geometry"),
        (plans.is_empty(), "at least one plan"),
        (failed_fractions.is_empty(), "at least one failed fraction"),
        (pairs == 0, "a positive pair budget"),
        (patterns == 0, "at least one pattern"),
    ];
    if let Some((_, needed)) = missing.iter().find(|(missing, _)| *missing) {
        return Err(SpecError::Invalid(format!(
            "failure campaign needs {needed}"
        )));
    }
    for plan in plans {
        plan.validate()?;
    }
    for &fraction in failed_fractions {
        if !fraction.is_finite() || !(0.0..=1.0).contains(&fraction) {
            return Err(SpecError::Invalid(format!(
                "failed fraction must be in [0, 1], got {fraction}"
            )));
        }
    }
    Ok(())
}

/// The five plan templates swept by the default configurations — one of
/// each shape, structural parameters at their catalogue values (fractions
/// are grid inputs and irrelevant here).
#[must_use]
pub fn default_plan_templates() -> Vec<FailurePlan> {
    vec![
        FailurePlan::Uniform { fraction: 0.0 },
        FailurePlan::SegmentCorrelated {
            fraction: 0.0,
            segments: 8,
        },
        FailurePlan::PrefixSubtree {
            fraction: 0.0,
            prefix_bits: 4,
        },
        FailurePlan::AdaptiveAdversary {
            fraction: 0.0,
            rounds: 4,
        },
        FailurePlan::Cascade {
            seed_fraction: 0.0,
            propagation: 0.3,
        },
    ]
}

/// One failure pattern's measurements: its realized failed fraction, its
/// alive graph's giant-component fraction and, when at least two nodes
/// survive, the tally of its routed pairs.
type PatternOutcome = (f64, f64, Option<CampaignTally>);

/// Measures one failure pattern of a grid point: lowers `plan` over
/// `overlay` from child `2 * pattern` of `point_seeds`, decomposes the alive
/// graph into components, and routes `pairs` pairs from child
/// `2 * pattern + 1` on `engine` — so mask and traffic streams never collide
/// and every pattern is independent.
fn run_pattern(
    overlay: &dyn Overlay,
    plan: &FailurePlan,
    pattern: u64,
    pairs: u64,
    point_seeds: &SeedSequence,
    engine: &TrialEngine,
) -> PatternOutcome {
    let mask = plan.lower(overlay, point_seeds.child(2 * pattern));
    let realized = mask.failed_count() as f64 / mask.population_size().max(1) as f64;
    let giant = connected_components(overlay, &mask).giant_component_fraction();
    let tally =
        engine.run_campaign_trial(overlay, &mask, pairs, point_seeds.child(2 * pattern + 1));
    (realized, giant, tally)
}

/// Folds the pattern outcomes of one grid point — `plan`, already
/// re-targeted at the point's fraction — in pattern order into its averaged
/// report row.
fn fold_point(
    overlay: &dyn Overlay,
    plan: &FailurePlan,
    outcomes: &[PatternOutcome],
) -> FailureCampaignPoint {
    let mut merged = CampaignTally::default();
    let mut patterns_measured = 0u32;
    let mut realized_sum = 0.0;
    let mut giant_sum = 0.0;
    for (realized, giant, tally) in outcomes {
        realized_sum += realized;
        giant_sum += giant;
        if let Some(tally) = tally {
            merged.merge(tally);
            patterns_measured += 1;
        }
    }
    let patterns = outcomes.len() as f64;
    let attempted = merged.trial.attempted;
    FailureCampaignPoint {
        geometry: overlay.geometry_name().to_owned(),
        bits: overlay.key_space().bits(),
        plan: plan.name().to_owned(),
        target_fraction: plan.target_fraction(),
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

/// Sweeps the geometry × plan × failed-fraction grid over full `2^bits`
/// populations: every plan *template* keeps its structural parameters
/// (segments, prefix length, rounds, propagation) while its fraction knob
/// is re-targeted to each of `failed_fractions` via
/// [`FailurePlan::with_fraction`]; every point measures `patterns` failure
/// patterns of `pairs` pairs each.
///
/// Each geometry's overlay is built once from `seed` (child 0, the
/// repository-wide convention — see [`build_overlay`]), and its kernel is
/// compiled on the `threads` budget, so every plan and fraction attacks the
/// *same* overlay instance and differences are attributable to the fault
/// structure alone. Grid point `k` (in sweep order) is seeded with child
/// `k + 1` of a [`SeedSequence`] rooted at `seed`; child 0 stays reserved
/// for overlay construction. Pattern `t` of a point lowers its mask from
/// child `2t` and routes its pairs from child `2t + 1` of the point's own
/// sequence.
///
/// The thread budget (clamped to `1..=`[`fanout::MAX_THREADS`]) is spent on
/// whole patterns: a geometry's (plan, fraction, pattern) units run on
/// `min(threads, units)` workers of one ordered queue ([`map_ordered`]),
/// each routing on a `threads / workers`-thread engine, so the nested loops
/// together stay within the one clamped budget; every point folds its
/// patterns in pattern order. One geometry's overlay is alive at a time.
/// Results are invariant under the `threads` budget.
///
/// # Errors
///
/// Returns [`SpecError`] for invalid parameters or unknown geometries.
#[allow(clippy::too_many_arguments)]
pub fn run_grid(
    bits: u32,
    geometries: &[String],
    plans: &[FailurePlan],
    failed_fractions: &[f64],
    pairs: u64,
    patterns: u32,
    seed: u64,
    threads: usize,
) -> Result<Vec<FailureCampaignPoint>, SpecError> {
    validate(geometries, plans, failed_fractions, pairs, patterns)?;
    let seeds = SeedSequence::new(seed);
    let stream_seed = seeds.child(0);
    // One geometry's sweep, in sweep order: each plan at each fraction.
    let sweep: Vec<FailurePlan> = plans
        .iter()
        .flat_map(|plan| {
            failed_fractions
                .iter()
                .map(|&fraction| plan.with_fraction(fraction))
        })
        .collect();
    let patterns = patterns as usize;
    let units = sweep.len() * patterns;
    let threads = threads.clamp(1, fanout::MAX_THREADS);
    let workers = threads.min(units);
    let engine = TrialEngine::new(threads / workers);
    let mut points = Vec::new();
    for geometry in geometries {
        let overlay = build_overlay(geometry, bits, stream_seed, Backend::Materialized, threads)?;
        let overlay = overlay.as_ref();
        // Compile the kernel here, on the whole budget, so no unit compiles
        // it on threads of its own.
        let _ = overlay.kernel();
        let first_point = points.len();
        let outcomes = map_ordered((0..units).collect(), workers, |unit| {
            let (point, pattern) = (unit / patterns, unit % patterns);
            let point_seeds = SeedSequence::new(seeds.child((first_point + point) as u64 + 1));
            run_pattern(
                overlay,
                &sweep[point],
                pattern as u64,
                pairs,
                &point_seeds,
                &engine,
            )
        });
        for (plan, outcomes) in sweep.iter().zip(outcomes.chunks(patterns)) {
            points.push(fold_point(overlay, plan, outcomes));
        }
    }
    Ok(points)
}

/// Renders grid points as the fixed-width table `scenario run` prints.
#[must_use]
pub fn render_failure_campaign_table(points: &[FailureCampaignPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<19} {:>5} {:>6} {:>9} {:>9} {:>7} {:>6} {:>10} {:>6} {:>6}",
        "geometry",
        "plan",
        "bits",
        "q",
        "realized",
        "delivered",
        "dropped",
        "hops",
        "stuck_mean",
        "stuck+",
        "giant"
    );
    for point in points {
        let _ = writeln!(
            out,
            "{:<10} {:<19} {:>5} {:>6.2} {:>9.4} {:>9.4} {:>7.4} {:>6.2} {:>10.2} {:>6} {:>6.3}",
            point.geometry,
            point.plan,
            point.bits,
            point.target_fraction,
            point.realized_failed_fraction,
            point.delivered_fraction,
            point.dropped_fraction,
            point.mean_hops,
            point.stuck_depth_mean,
            point.stuck_depth_max,
            point.giant_component_fraction,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The smoke campaign of `Family::FailureCampaign.default_spec(true)`:
    // ring and XOR at `N = 2^8`, two failed fractions, two patterns.
    const SMOKE_BITS: u32 = 8;
    const SMOKE_FRACTIONS: [f64; 2] = [0.2, 0.4];
    const SMOKE_PAIRS: u64 = 1_500;

    fn ring_and_xor() -> Vec<String> {
        vec!["ring".to_owned(), "xor".to_owned()]
    }

    fn smoke_grid(
        geometries: &[String],
        plans: &[FailurePlan],
        failed_fractions: &[f64],
        threads: usize,
    ) -> Result<Vec<FailureCampaignPoint>, SpecError> {
        run_grid(
            SMOKE_BITS,
            geometries,
            plans,
            failed_fractions,
            SMOKE_PAIRS,
            2,
            2006,
            threads,
        )
    }

    fn smoke(threads: usize) -> Vec<FailureCampaignPoint> {
        smoke_grid(
            &ring_and_xor(),
            &default_plan_templates(),
            &SMOKE_FRACTIONS,
            threads,
        )
        .unwrap()
    }

    #[test]
    fn adaptive_below_correlated_below_uniform_on_ring_and_xor() {
        // Tentpole acceptance, measured at one matched failed fraction on
        // both geometries. Deterministic engines make this exact: the
        // pinned seed reproduces these numbers bit-for-bit.
        //
        // On the ring the full severity chain holds: the in-degree-informed
        // adversary delivers strictly less than rack-style correlated
        // spans, which deliver strictly less than uniform random failure —
        // ring routes must traverse id space linearly, so dead arcs block
        // through-traffic, and the adversary's finger-aligned blocks block
        // it best.
        //
        // On XOR the adversary is again strictly worst, but the
        // correlated-vs-uniform leg *inverts*, and sweeps across
        // `q ∈ [0.05, 0.5]`, `segments ∈ [2, 64]` and `bits ∈ {10, 11}`
        // show the inversion is structural, not a tuning artifact: a
        // contiguous id-space span is a union of whole subtrees, so it
        // removes exactly the routes that led to the targets it also
        // removed, while uniform failure degrades every survivor's buckets.
        // The test pins that contrast — correlated failure is what ring
        // geometries fear and XOR geometries shrug off — instead of
        // papering over it.
        // The acceptance-criterion scale: `N = 2^10`, one matched failed
        // fraction, structured plans against the uniform baseline.
        let plans = [
            FailurePlan::Uniform { fraction: 0.0 },
            FailurePlan::SegmentCorrelated {
                fraction: 0.0,
                segments: 16,
            },
            FailurePlan::AdaptiveAdversary {
                fraction: 0.0,
                rounds: 4,
            },
        ];
        let points = run_grid(10, &ring_and_xor(), &plans, &[0.35], 6_000, 3, 2006, 2).unwrap();
        let delivered = |geometry: &str, plan: &str| {
            points
                .iter()
                .find(|p| p.geometry == geometry && p.plan == plan)
                .unwrap()
                .delivered_fraction
        };
        for geometry in ["ring", "xor"] {
            let uniform = delivered(geometry, "uniform");
            let correlated = delivered(geometry, "segment_correlated");
            let adaptive = delivered(geometry, "adaptive_adversary");
            assert!(
                adaptive + 0.02 < correlated && adaptive + 0.02 < uniform,
                "{geometry}: adaptive {adaptive:.4} not strictly worst \
                 (correlated {correlated:.4}, uniform {uniform:.4})"
            );
        }
        let (ring_uniform, ring_correlated) = (
            delivered("ring", "uniform"),
            delivered("ring", "segment_correlated"),
        );
        assert!(
            ring_correlated + 0.02 < ring_uniform,
            "ring: correlated {ring_correlated:.4} < uniform {ring_uniform:.4} violated"
        );
        let (xor_uniform, xor_correlated) = (
            delivered("xor", "uniform"),
            delivered("xor", "segment_correlated"),
        );
        assert!(
            xor_uniform + 0.02 < xor_correlated,
            "xor: expected the structural inversion — uniform {xor_uniform:.4} \
             < correlated {xor_correlated:.4}"
        );
    }

    #[test]
    fn campaign_grids_are_invariant_under_thread_count() {
        // Three workers split each geometry's 20 units unevenly, and eight
        // leave some workers a single unit.
        let reference = smoke(1);
        for threads in [2, 3, 8] {
            assert_eq!(reference, smoke(threads), "threads = {threads}");
        }
    }

    #[test]
    fn a_grid_with_fewer_units_than_threads_routes_on_every_thread() {
        // One unit: a single worker routes it on a four-thread engine.
        let single = |threads| {
            let geometries = ["xor".to_owned()];
            let plans = [FailurePlan::Uniform { fraction: 0.0 }];
            run_grid(
                SMOKE_BITS,
                &geometries,
                &plans,
                &[0.3],
                9_000,
                1,
                2006,
                threads,
            )
            .unwrap()
        };
        let reference = single(1);
        assert_eq!(reference.len(), 1);
        assert_eq!(reference[0].attempted, 9_000);
        assert_eq!(reference, single(4));
    }

    #[test]
    fn smoke_grid_covers_every_plan_and_reports_sane_metrics() {
        let points = smoke(2);
        let plans = default_plan_templates();
        assert_eq!(points.len(), 2 * plans.len() * SMOKE_FRACTIONS.len());
        for plan in &plans {
            assert!(points.iter().any(|p| p.plan == plan.name()));
        }
        for point in &points {
            assert!(
                point.patterns_measured > 0,
                "{}: nothing measured",
                point.plan
            );
            assert!((0.0..=1.0).contains(&point.delivered_fraction));
            assert!((0.0..=1.0).contains(&point.dropped_fraction));
            assert!((0.0..=1.0).contains(&point.realized_failed_fraction));
            assert!((0.0..=1.0).contains(&point.giant_component_fraction));
            assert!(
                point.attempted >= u64::from(point.patterns_measured) * SMOKE_PAIRS,
                "{}: pair budget not honoured",
                point.plan
            );
            // Budgeted plans realize `round(q·n)/n` exactly; uniform within
            // sampling noise; cascades exceed their seeding target.
            if point.plan == "segment_correlated" || point.plan == "adaptive_adversary" {
                let n = f64::from(1u32 << SMOKE_BITS);
                assert!(
                    (point.realized_failed_fraction - point.target_fraction).abs()
                        <= 0.5 / n + 1e-12,
                    "{}: budget drifted",
                    point.plan
                );
            }
            if point.plan == "cascade" {
                assert!(point.realized_failed_fraction > point.target_fraction);
            }
        }
        let table = render_failure_campaign_table(&points);
        assert!(table.contains("adaptive_adversary") && table.contains("cascade"));
        let json = serde_json::to_string(&points).unwrap();
        let back: Vec<FailureCampaignPoint> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, points);
    }

    #[test]
    fn uniform_delivery_degrades_with_the_failed_fraction() {
        let points = smoke(2);
        for geometry in &ring_and_xor() {
            let uniform: Vec<&FailureCampaignPoint> = points
                .iter()
                .filter(|p| &p.geometry == geometry && p.plan == "uniform")
                .collect();
            assert_eq!(uniform.len(), 2);
            assert!(
                uniform[0].delivered_fraction > uniform[1].delivered_fraction,
                "{geometry}: delivery did not degrade from q=0.2 to q=0.4"
            );
        }
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let plans = default_plan_templates();
        assert!(smoke_grid(&ring_and_xor(), &plans, &[1.5], 2).is_err());
        assert!(smoke_grid(&ring_and_xor(), &[], &SMOKE_FRACTIONS, 2).is_err());
        let torus = ["torus".to_owned()];
        assert!(smoke_grid(&torus, &plans, &SMOKE_FRACTIONS, 2).is_err());
    }
}
