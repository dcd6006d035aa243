//! Failure-probability sweeps over an overlay (the simulated curves of
//! Fig. 6).

use crate::config::{SimError, StaticResilienceConfig};
use crate::rng::SeedSequence;
use crate::static_resilience::{StaticResilienceExperiment, StaticResilienceResult};
use dht_overlay::Overlay;

/// Measures the overlay at every failure probability of `grid`, using
/// `base_config` for the pair count, trial count, seed and threading, and
/// returns one result per grid value, in grid order (each carries its
/// `failure_probability`).
///
/// The seed of grid point `k` is child `k` of a [`SeedSequence`] rooted at
/// the base seed — the repository-wide convention for deriving per-point
/// seeds from one root (live-churn grids use the same rule), so grids that
/// share a root seed never share or correlate per-point RNG streams. The
/// points run one after another, each on the whole thread budget of
/// `base_config` (its [`crate::TrialEngine`] splits every trial's shards),
/// and — like every engine-backed measurement — are bit-identical for any
/// thread budget.
///
/// # Errors
///
/// Returns [`SimError::InvalidFailureProbability`] if a grid value is outside
/// `[0, 1)`; the whole grid is validated before any measurement starts.
///
/// # Example
///
/// ```rust
/// use dht_overlay::CanOverlay;
/// use dht_sim::{sweep_failure_grid, StaticResilienceConfig};
///
/// let overlay = CanOverlay::build(8)?;
/// let config = StaticResilienceConfig::new(0.0)?.with_pairs(500).with_seed(1);
/// let points = sweep_failure_grid(&overlay, &config, &[0.0, 0.2, 0.4])?;
/// assert_eq!(points.len(), 3);
/// assert!(points[0].routability >= points[2].routability);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn sweep_failure_grid<O>(
    overlay: &O,
    base_config: &StaticResilienceConfig,
    grid: &[f64],
) -> Result<Vec<StaticResilienceResult>, SimError>
where
    O: Overlay + ?Sized,
{
    let seeds = SeedSequence::new(base_config.seed());
    let configs = grid
        .iter()
        .enumerate()
        .map(|(index, &q)| {
            Ok(StaticResilienceConfig::new(q)?
                .with_pairs(base_config.pairs())
                .with_trials(base_config.trials())
                .with_threads(base_config.threads())
                .with_seed(seeds.child(index as u64)))
        })
        .collect::<Result<Vec<_>, SimError>>()?;
    Ok(configs
        .into_iter()
        .map(|config| StaticResilienceExperiment::new(config).run(overlay))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_overlay::{CanOverlay, KademliaOverlay};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sweep_produces_one_point_per_grid_value() {
        let overlay = CanOverlay::build(8).unwrap();
        let config = StaticResilienceConfig::new(0.0)
            .unwrap()
            .with_pairs(300)
            .with_seed(5);
        let grid = [0.0, 0.1, 0.3, 0.5];
        let points = sweep_failure_grid(&overlay, &config, &grid).unwrap();
        assert_eq!(points.len(), 4);
        for (point, &q) in points.iter().zip(grid.iter()) {
            assert_eq!(point.failure_probability, q);
        }
    }

    #[test]
    fn measured_routability_is_monotone_on_average() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let overlay = KademliaOverlay::build(10, &mut rng).unwrap();
        let config = StaticResilienceConfig::new(0.0)
            .unwrap()
            .with_pairs(2_000)
            .with_seed(9);
        let points = sweep_failure_grid(&overlay, &config, &[0.0, 0.3, 0.6]).unwrap();
        assert!(points[0].routability >= points[1].routability);
        assert!(points[1].routability >= points[2].routability);
    }

    #[test]
    fn concurrent_sweep_is_deterministic_and_ordered() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let overlay = KademliaOverlay::build(9, &mut rng).unwrap();
        let config = StaticResilienceConfig::new(0.0)
            .unwrap()
            .with_pairs(500)
            .with_seed(3);
        let grid = [0.5, 0.1, 0.3, 0.0];
        let a = sweep_failure_grid(&overlay, &config, &grid).unwrap();
        let b = sweep_failure_grid(&overlay, &config, &grid).unwrap();
        assert_eq!(a, b, "per-point seeding keeps the sweep reproducible");
        let order: Vec<f64> = a.iter().map(|p| p.failure_probability).collect();
        assert_eq!(order, grid, "points come back in grid order");
    }

    #[test]
    fn invalid_grid_values_are_rejected() {
        let overlay = CanOverlay::build(6).unwrap();
        let config = StaticResilienceConfig::new(0.0).unwrap();
        assert!(sweep_failure_grid(&overlay, &config, &[0.2, 1.0]).is_err());
    }
}
