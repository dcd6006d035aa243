//! Experiments E3/E4 — Fig. 6: analysis vs simulation at `N = 2^16`.
//!
//! Fig. 6(a) plots the percentage of failed paths for the tree, hypercube and
//! XOR geometries as the node failure probability grows from 0 to 90%;
//! Fig. 6(b) does the same for ring (Chord) routing, where the analytical
//! expression is an upper bound on the failed-path percentage. In the paper
//! the simulation points come from Gummadi et al.; here they are measured on
//! the executable overlays of `dht-overlay` under the identical
//! static-resilience model.

use crate::spec::{analytic_geometry, build_overlay, Backend, SpecError};
use dht_rcm_core::{routability, RcmError, SystemSize};
use dht_sim::{sweep_failure_grid, SeedSequence, SimulationRecord, StaticResilienceConfig};

/// Runs Fig. 6(a): tree, hypercube and XOR, analysis at `2^analytical_bits`
/// plus simulation on overlays of `2^simulation_bits` nodes, `pairs`
/// source/destination pairs per point of `grid`. `seed` is split as the
/// static-resilience family splits it: `SeedSequence` child 0 builds each
/// overlay and child 1 roots its failure sweep.
///
/// # Errors
///
/// Returns [`SpecError`] if any component fails; degenerate analytical points
/// (too few expected survivors) are skipped like the paper's plot simply ends.
pub fn fig6a(
    analytical_bits: u32,
    simulation_bits: u32,
    pairs: u64,
    grid: &[f64],
    seed: u64,
    threads: usize,
) -> Result<Vec<SimulationRecord>, SpecError> {
    failed_path_records(
        "fig6a",
        &["tree", "hypercube", "xor"],
        analytical_bits,
        simulation_bits,
        pairs,
        grid,
        seed,
        threads,
    )
}

/// Runs Fig. 6(b): ring (Chord) routing, analysis plus simulation, with the
/// arguments of [`fig6a`]. Each record's [`SimulationRecord::slack`] is the
/// bound's slack, non-negative where the bound holds.
///
/// # Errors
///
/// See [`fig6a`].
pub fn fig6b(
    analytical_bits: u32,
    simulation_bits: u32,
    pairs: u64,
    grid: &[f64],
    seed: u64,
    threads: usize,
) -> Result<Vec<SimulationRecord>, SpecError> {
    // The `ring` overlay is classic (deterministic-finger) Chord, as
    // simulated by Gummadi et al.; the paper's analysis uses the randomised
    // variant, whose extra finger placement noise is exactly what the
    // lower-bound model abstracts away.
    failed_path_records(
        "fig6b",
        &["ring"],
        analytical_bits,
        simulation_bits,
        pairs,
        grid,
        seed,
        threads,
    )
}

/// Evaluates each geometry across the whole grid, both analytically and by
/// simulation on its overlay.
#[allow(clippy::too_many_arguments)]
fn failed_path_records(
    experiment: &str,
    geometries: &[&str],
    analytical_bits: u32,
    simulation_bits: u32,
    pairs: u64,
    grid: &[f64],
    seed: u64,
    threads: usize,
) -> Result<Vec<SimulationRecord>, SpecError> {
    let analytical_size = SystemSize::power_of_two(analytical_bits)?;
    let seeds = SeedSequence::new(seed);
    let base = StaticResilienceConfig::new(0.0)?
        .with_pairs(pairs)
        .with_seed(seeds.child(1))
        .with_threads(threads);
    let mut records = Vec::with_capacity(geometries.len() * grid.len());
    for &name in geometries {
        let model = analytic_geometry(name)?;
        let overlay = build_overlay(
            name,
            simulation_bits,
            seeds.child(0),
            Backend::Materialized,
            threads,
        )?;
        for simulated in sweep_failure_grid(overlay.as_ref(), &base, grid)? {
            let q = simulated.failure_probability;
            let analytical = match routability(&model, analytical_size, q) {
                Ok(report) => Some(report.failed_path_percent),
                Err(RcmError::DegenerateSystem { .. }) => None,
                Err(other) => return Err(other.into()),
            };
            let mut record = SimulationRecord {
                experiment: experiment.to_owned(),
                geometry: name.to_owned(),
                bits: analytical_bits,
                failure_probability: q,
                analytical_failed_percent: analytical,
                simulated_bits: None,
                simulated_failed_percent: None,
                simulated_confidence_half_width: None,
            };
            if simulated.pairs_attempted > 0 {
                record = record.with_simulation(&simulated);
            }
            records.push(record);
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke scale of `Family::Fig6a.default_spec(true)`.
    fn smoke_grid() -> Vec<f64> {
        dht_mathkit::percent_grid(80, 20)
    }

    #[test]
    fn fig6_simulates_each_geometry_as_static_resilience_does() {
        // Both panels build and sweep each overlay by the static-resilience
        // family's rule, so their simulated column is that family's
        // measurement at the same seed.
        use crate::spec::{run_spec, ExperimentSpec, ScenarioSpec, StaticResilienceReport};
        use serde::Deserialize;
        let grid = [0.1, 0.3, 0.5];
        let mut records = fig6a(12, 8, 500, &grid, 2006, 1).unwrap();
        records.extend(fig6b(12, 8, 500, &grid, 2006, 1).unwrap());
        for geometry in ["ring", "tree", "hypercube", "xor"] {
            let experiment = ExperimentSpec::StaticResilience {
                geometry: geometry.to_owned(),
                bits: 8,
                grid: grid.to_vec(),
                pairs: 500,
                trials: 1,
            };
            let outcome = run_spec(&ScenarioSpec::new("static", 2006, experiment), None).unwrap();
            let report = StaticResilienceReport::from_value(&outcome.report.payload).unwrap();
            let expected: Vec<_> = report
                .points
                .iter()
                .map(|point| Some(point.simulated.failed_path_percent))
                .collect();
            let simulated: Vec<_> = records
                .iter()
                .filter(|record| record.geometry == geometry)
                .map(|record| record.simulated_failed_percent)
                .collect();
            assert_eq!(simulated, expected, "{geometry}");
        }
        // Each record names both sizes: analysed at 2^12, simulated at 2^8.
        for record in &records {
            assert_eq!((record.bits, record.simulated_bits), (12, Some(8)));
        }
    }

    #[test]
    fn fig6a_has_one_record_per_geometry_and_grid_point() {
        let grid = smoke_grid();
        let records = fig6a(16, 10, 2_000, &grid, 2006, 1).unwrap();
        assert_eq!(records.len(), 3 * grid.len());
        assert!(records.iter().all(|r| r.experiment == "fig6a"));
    }

    #[test]
    fn fig6a_preserves_the_paper_ordering() {
        // At every failure probability the tree loses more paths than XOR,
        // which loses at least as many as the hypercube — both analytically
        // and in simulation.
        let grid = smoke_grid();
        let records = fig6a(16, 10, 2_000, &grid, 2006, 1).unwrap();
        for &q in &grid {
            if q == 0.0 {
                continue;
            }
            let find = |name: &str| {
                records
                    .iter()
                    .find(|r| r.geometry == name && r.failure_probability == q)
                    .unwrap()
            };
            let tree = find("tree");
            let cube = find("hypercube");
            let xor = find("xor");
            if let (Some(t), Some(x), Some(c)) = (
                tree.analytical_failed_percent,
                xor.analytical_failed_percent,
                cube.analytical_failed_percent,
            ) {
                assert!(t >= x - 1e-9, "q={q}: tree {t} vs xor {x}");
                assert!(x >= c - 1e-9, "q={q}: xor {x} vs hypercube {c}");
            }
            if let (Some(t), Some(x)) =
                (tree.simulated_failed_percent, xor.simulated_failed_percent)
            {
                assert!(t >= x - 5.0, "q={q}: simulated tree {t} vs xor {x}");
            }
        }
    }

    #[test]
    fn fig6a_analysis_matches_simulation_at_moderate_failure() {
        // The headline claim of Fig. 6(a): the analytical curves fit the
        // simulation. At the smoke scale we allow a few percentage points of
        // finite-size and sampling error.
        let records = fig6a(12, 12, 5_000, &[0.1, 0.3, 0.5], 2006, 1).unwrap();
        for record in &records {
            let (Some(analytic), Some(simulated)) = (
                record.analytical_failed_percent,
                record.simulated_failed_percent,
            ) else {
                continue;
            };
            let tolerance = 8.0 + 12.0 * record.failure_probability;
            assert!(
                (analytic - simulated).abs() < tolerance,
                "{} at q={}: analytic {analytic} vs simulated {simulated}",
                record.geometry,
                record.failure_probability
            );
        }
    }

    #[test]
    fn fig6b_analytical_upper_bounds_the_simulation() {
        // §4.3.3 / Fig. 6(b): the ring analysis over-estimates failed paths
        // because suboptimal progress is ignored.
        let records = fig6b(12, 12, 5_000, &[0.1, 0.2, 0.3, 0.5], 2006, 1).unwrap();
        for record in &records {
            let (Some(analytic), Some(simulated)) = (
                record.analytical_failed_percent,
                record.simulated_failed_percent,
            ) else {
                continue;
            };
            assert!(
                analytic >= simulated - 2.0,
                "ring at q={}: analytic {analytic} should upper-bound simulated {simulated}",
                record.failure_probability
            );
        }
    }

    /// Fig. 6(b)'s bound slack, analytical minus simulated failed-path
    /// percentage, at each q of `BOUND_GRID` (2^12 ring, 4 000 pairs).
    const BOUND_GRID: [f64; 4] = [0.1, 0.3, 0.5, 0.7];

    fn bound_slack() -> impl Fn(f64) -> f64 {
        let records = fig6b(12, 12, 4_000, &BOUND_GRID, 2006, 1).unwrap();
        assert_eq!(records.len(), BOUND_GRID.len());
        move |q| {
            records
                .iter()
                .find(|r| r.failure_probability == q)
                .and_then(SimulationRecord::slack)
                .unwrap()
        }
    }

    #[test]
    fn fig6b_bound_holds_everywhere() {
        let slack = bound_slack();
        for q in BOUND_GRID {
            assert!(slack(q) > -2.0, "bound violated at q={q}: {}", slack(q));
        }
    }

    #[test]
    fn fig6b_bound_is_tight_at_low_failure_probability() {
        // Fig. 6(b): "very close to simulation ... for failure probability
        // less than 20%".
        let slack = bound_slack();
        assert!(slack(0.1).abs() < 5.0, "slack at q=0.1: {}", slack(0.1));
    }

    #[test]
    fn fig6b_slack_grows_with_failure_probability() {
        let slack = bound_slack();
        assert!(slack(0.7) > slack(0.1) - 1.0);
    }
}
