//! Sparse-population static resilience: routability at `n < 2^d` occupied
//! identifiers.
//!
//! The paper (and its Fig. 6 simulations) assumes fully populated identifier
//! spaces. Deployed DHTs never are: a Chord or Kademlia network occupies a
//! vanishing fraction of its `2^d` identifiers and resolves routing-table
//! targets against the occupied set (successors, bucket members). This
//! experiment opens that axis: it measures static resilience on overlays
//! built over a sparse [`Population`] and — optionally — over the fully
//! populated space of the same identifier length, so the occupancy effect can
//! be separated from the failure effect.
//!
//! Two qualitative outcomes worth knowing before reading the numbers:
//!
//! * ring, XOR and tree tables resolve against the occupied set, so an
//!   *intact* sparse overlay of these geometries stays fully routable — the
//!   sparse curves start at 100% like the full ones;
//! * the hypercube has no resolution rule (a missing coordinate neighbour is
//!   simply absent), so its sparse routability collapses even at `q = 0` —
//!   occupancy is a failure mode of its own for that geometry.

use crate::spec::SpecError;
use dht_id::{IdError, Population};
use dht_overlay::{CanOverlay, ChordOverlay, ChordVariant, KademliaOverlay, Overlay};
use dht_sim::{sweep_failure_grid, StaticResilienceConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One measured point of the sparse-population experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparsePopulationRecord {
    /// Geometry name (`"ring"`, `"xor"`, `"hypercube"`).
    pub geometry: String,
    /// Identifier length of the space.
    pub bits: u32,
    /// Occupied identifiers of this overlay.
    pub occupied: u64,
    /// Occupied fraction of the space.
    pub occupancy: f64,
    /// Failure probability of this grid point.
    pub failure_probability: f64,
    /// Measured routability among surviving occupied pairs.
    pub routability: f64,
    /// `100·(1 − routability)`, the Fig. 6 y-axis.
    pub failed_path_percent: f64,
    /// Mean hops over delivered messages.
    pub mean_hops: f64,
}

/// Runs the experiment: ring, XOR and hypercube overlays over `occupied`
/// identifiers sampled from a `2^bits` space (plus, with
/// `include_full_baseline`, the fully populated space), swept across the
/// failure `grid` with `pairs` pairs per point. `seed` drives population
/// sampling, overlay construction, failure patterns and pair sampling.
///
/// # Errors
///
/// Returns [`SpecError`] if the population cannot be sampled, an overlay
/// cannot be built, or a grid value is invalid.
pub fn sparse_population_resilience(
    bits: u32,
    occupied: u64,
    include_full_baseline: bool,
    pairs: u64,
    grid: &[f64],
    seed: u64,
    threads: usize,
) -> Result<Vec<SparsePopulationRecord>, SpecError> {
    let sampling = |err: IdError| SpecError::Invalid(format!("population sampling failed: {err}"));
    let space = dht_id::KeySpace::new(bits).map_err(sampling)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sparse = Population::sample_uniform(space, occupied, &mut rng).map_err(sampling)?;

    let mut populations = vec![sparse];
    if include_full_baseline {
        populations.push(Population::full(space));
    }

    let base_config = StaticResilienceConfig::new(0.0)?
        .with_pairs(pairs)
        .with_seed(seed)
        .with_threads(threads);

    // Each overlay lives only for its own sweep (a temporary dropped at the
    // end of its statement), so at most one arena and plan are resident.
    let mut records = Vec::new();
    for population in populations {
        measure(
            &ChordOverlay::build_over(
                population.clone(),
                ChordVariant::Deterministic,
                // The deterministic variant draws no randomness; reuse the
                // master stream for the geometries that do.
                &mut rng,
            )?,
            &base_config,
            grid,
            &mut records,
        )?;
        measure(
            &KademliaOverlay::build_over(population.clone(), &mut rng)?,
            &base_config,
            grid,
            &mut records,
        )?;
        measure(
            &CanOverlay::build_over(population)?,
            &base_config,
            grid,
            &mut records,
        )?;
    }
    Ok(records)
}

fn measure<O>(
    overlay: &O,
    base_config: &StaticResilienceConfig,
    grid: &[f64],
    records: &mut Vec<SparsePopulationRecord>,
) -> Result<(), SpecError>
where
    O: Overlay,
{
    let points = sweep_failure_grid(overlay, base_config, grid)?;
    records.extend(points.into_iter().map(|point| SparsePopulationRecord {
        geometry: point.geometry,
        bits: point.bits,
        occupied: point.occupied_nodes,
        occupancy: overlay.population().occupancy(),
        failure_probability: point.failure_probability,
        routability: point.routability,
        failed_path_percent: point.failed_path_percent,
        mean_hops: point.mean_hops,
    }));
    Ok(())
}

/// Renders sparse-population records as a fixed-width text table.
#[must_use]
pub fn render_sparse_table(records: &[SparsePopulationRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>9} {:>10} {:>6} {:>13} {:>10}",
        "geometry", "bits", "occupied", "occupancy", "q", "routability %", "mean hops"
    );
    for record in records {
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:>9} {:>10.3} {:>6.2} {:>13.2} {:>10.2}",
            record.geometry,
            record.bits,
            record.occupied,
            record.occupancy,
            record.failure_probability,
            100.0 * record.routability,
            record.mean_hops,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE_GRID: [f64; 3] = [0.0, 0.2, 0.4];

    /// The smoke run of `Family::SparsePopulation.default_spec(true)`: 2^8
    /// of 2^10 identifiers plus the full baseline.
    fn smoke() -> Vec<SparsePopulationRecord> {
        sparse_population_resilience(10, 1 << 8, true, 1_500, &SMOKE_GRID, 2006, 1).unwrap()
    }

    #[test]
    fn smoke_run_covers_both_occupancies_and_all_grid_points() {
        let records = smoke();
        // 3 geometries × 2 populations × grid.
        assert_eq!(records.len(), 3 * 2 * SMOKE_GRID.len());
        assert!(records.iter().any(|r| r.occupied == 256));
        assert!(records.iter().any(|r| r.occupied == 1024));
        let table = render_sparse_table(&records);
        assert!(table.contains("ring") && table.contains("hypercube"));
    }

    #[test]
    fn intact_sparse_ring_and_xor_stay_fully_routable() {
        let records = smoke();
        for record in records
            .iter()
            .filter(|r| r.failure_probability == 0.0 && r.occupied == 256)
        {
            match record.geometry.as_str() {
                "ring" | "xor" => assert_eq!(
                    record.routability, 1.0,
                    "{} must stay routable when intact",
                    record.geometry
                ),
                "hypercube" => assert!(
                    record.routability < 0.9,
                    "a 25%-occupied hypercube loses coordinate neighbours, got {}",
                    record.routability
                ),
                other => panic!("unexpected geometry {other}"),
            }
        }
    }

    #[test]
    fn sparse_ring_routability_degrades_with_failure_like_the_full_ring() {
        let records = smoke();
        let ring_sparse: Vec<&SparsePopulationRecord> = records
            .iter()
            .filter(|r| r.geometry == "ring" && r.occupied == 256)
            .collect();
        assert!(ring_sparse[0].routability >= ring_sparse[1].routability);
        assert!(ring_sparse[1].routability >= ring_sparse[2].routability);
        // The sparse ring routes in more hops than the full one (successor
        // chains replace exact fingers) but stays in the same resilience
        // regime at moderate failure.
        let full = records
            .iter()
            .find(|r| r.geometry == "ring" && r.occupied == 1024 && r.failure_probability == 0.2)
            .unwrap();
        let sparse = records
            .iter()
            .find(|r| r.geometry == "ring" && r.occupied == 256 && r.failure_probability == 0.2)
            .unwrap();
        assert!((full.routability - sparse.routability).abs() < 0.15);
    }

    #[test]
    fn paper_scale_experiment_runs_end_to_end_at_2_20_space_2_18_nodes() {
        // The acceptance-scale run, reduced to the ring geometry's grid end
        // points and a light pair budget so it stays test-suite friendly.
        let space = dht_id::KeySpace::new(20).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let population = Population::sample_uniform(space, 1 << 18, &mut rng).unwrap();
        assert_eq!(population.node_count(), 1 << 18);
        let overlay =
            ChordOverlay::build_over(population, ChordVariant::Deterministic, &mut rng).unwrap();
        let base = StaticResilienceConfig::new(0.0)
            .unwrap()
            .with_pairs(300)
            .with_seed(7)
            .with_threads(2);
        let points = sweep_failure_grid(&overlay, &base, &[0.0, 0.3]).unwrap();
        assert_eq!(points[0].occupied_nodes, 1 << 18);
        assert_eq!(points[0].routability, 1.0);
        assert!(points[1].routability > 0.5);
        assert_eq!(overlay.edge_count(), (1 << 18) * 20);
    }
}
