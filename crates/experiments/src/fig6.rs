//! Experiments E3/E4 — Fig. 6: analysis vs simulation at `N = 2^16`.
//!
//! Fig. 6(a) plots the percentage of failed paths for the tree, hypercube and
//! XOR geometries as the node failure probability grows from 0 to 90%;
//! Fig. 6(b) does the same for ring (Chord) routing, where the analytical
//! expression is an upper bound on the failed-path percentage. In the paper
//! the simulation points come from Gummadi et al.; here they are measured on
//! the executable overlays of `dht-overlay` under the identical
//! static-resilience model.

use crate::spec::SpecError;
use dht_overlay::{
    CanOverlay, ChordOverlay, ChordVariant, KademliaOverlay, Overlay, PlaxtonOverlay,
};
use dht_rcm_core::{routability, Geometry, RcmError, RoutingGeometry, SystemSize};
use dht_sim::{SimulationRecord, StaticResilienceConfig, StaticResilienceExperiment};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs Fig. 6(a): tree, hypercube and XOR, analysis at `2^analytical_bits`
/// plus simulation on overlays of `2^simulation_bits` nodes, `pairs`
/// source/destination pairs per point of `grid`. `seed` drives overlay
/// construction, failure patterns and sampling.
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
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let tree = PlaxtonOverlay::build(simulation_bits, &mut rng)?;
    let cube = CanOverlay::build(simulation_bits)?;
    let xor = KademliaOverlay::build(simulation_bits, &mut rng)?;
    failed_path_records(
        "fig6a",
        &[
            (Geometry::tree(), &tree),
            (Geometry::hypercube(), &cube),
            (Geometry::xor(), &xor),
        ],
        analytical_bits,
        pairs,
        grid,
        seed,
        threads,
    )
}

/// Runs Fig. 6(b): ring (Chord) routing, analysis plus simulation, with the
/// arguments of [`fig6a`].
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
    // Classic (deterministic-finger) Chord, as simulated by Gummadi et al.;
    // the paper's analysis uses the randomised variant, whose extra finger
    // placement noise is exactly what the lower-bound model abstracts away.
    let ring = ChordOverlay::build(simulation_bits, ChordVariant::Deterministic)?;
    failed_path_records(
        "fig6b",
        &[(Geometry::ring(), &ring)],
        analytical_bits,
        pairs,
        grid,
        seed,
        threads,
    )
}

/// Evaluates each geometry across the whole grid, both analytically and by
/// simulation on its matching overlay. Grid point `k` simulates from seed
/// `seed + 101·k`.
fn failed_path_records(
    experiment: &str,
    panels: &[(Geometry, &dyn Overlay)],
    analytical_bits: u32,
    pairs: u64,
    grid: &[f64],
    seed: u64,
    threads: usize,
) -> Result<Vec<SimulationRecord>, SpecError> {
    let analytical_size = SystemSize::power_of_two(analytical_bits)?;
    let mut records = Vec::with_capacity(panels.len() * grid.len());
    for (geometry, overlay) in panels {
        for (index, &q) in grid.iter().enumerate() {
            let analytical = match routability(geometry, analytical_size, q) {
                Ok(report) => Some(report.failed_path_percent),
                Err(RcmError::DegenerateSystem { .. }) => None,
                Err(other) => return Err(other.into()),
            };
            let sim_config = StaticResilienceConfig::new(q)?
                .with_pairs(pairs)
                .with_seed(seed.wrapping_add(index as u64 * 101))
                .with_threads(threads);
            let simulated = StaticResilienceExperiment::new(sim_config).run(*overlay);
            let mut record = SimulationRecord {
                experiment: experiment.to_owned(),
                geometry: geometry.name().to_owned(),
                bits: analytical_bits,
                failure_probability: q,
                analytical_failed_percent: analytical,
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
}
