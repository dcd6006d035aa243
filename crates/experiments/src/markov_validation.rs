//! Experiment E2/E8 — validating the closed-form `Q(m)` expressions against
//! the routing Markov chains of Fig. 4, 5 and 8.
//!
//! Every closed form in §4.3 of the paper was *derived* from a Markov chain;
//! this harness rebuilds those chains with `dht-markov`, solves them
//! numerically, and reports the worst absolute deviation of the closed-form
//! `p(h, q)` from the chain's absorption probability over a grid of `(h, q)`.

use crate::spec::SpecError;
use dht_markov::chains::{hypercube_chain, ring_chain, symphony_chain, tree_chain, xor_chain};
use dht_markov::ChainError;
use dht_rcm_core::{success_probability, Geometry, RoutingGeometry};
use serde::{Deserialize, Serialize};

/// Validation summary for one geometry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationRow {
    /// Geometry name.
    pub geometry: String,
    /// Largest hop/phase distance checked.
    pub max_distance: u32,
    /// Number of `(h, q)` grid points checked.
    pub points: u32,
    /// Worst absolute deviation between closed form and chain solution.
    pub max_absolute_error: f64,
    /// Mean absolute deviation over the grid.
    pub mean_absolute_error: f64,
}

/// Runs the validation over `h = 1..=max_distance` and the given failure
/// probabilities.
///
/// # Errors
///
/// Returns [`SpecError`] if a chain cannot be built or a closed form cannot
/// be evaluated.
pub fn run(max_distance: u32, grid: &[f64]) -> Result<Vec<ValidationRow>, SpecError> {
    /// Evaluates a chain's success probability at distance `h`, failure `q`.
    type ChainSuccess = Box<dyn Fn(u32, f64) -> Result<f64, ChainError>>;
    // (geometry, d used for closed forms, chain builder)
    let geometries: Vec<(Geometry, ChainSuccess)> = vec![
        (
            Geometry::tree(),
            Box::new(|h, q| tree_chain(h, q)?.success_probability()),
        ),
        (
            Geometry::hypercube(),
            Box::new(|h, q| hypercube_chain(h, q)?.success_probability()),
        ),
        (
            Geometry::xor(),
            Box::new(|h, q| xor_chain(h, q)?.success_probability()),
        ),
        (
            Geometry::ring(),
            Box::new(|h, q| ring_chain(h, q)?.success_probability()),
        ),
        (
            Geometry::symphony(1, 1)?,
            Box::new(move |h, q| {
                symphony_chain(h, q, 1, 1, max_distance.max(h))?.success_probability()
            }),
        ),
    ];

    let mut rows = Vec::with_capacity(geometries.len());
    for (geometry, chain_success) in &geometries {
        let mut max_error: f64 = 0.0;
        let mut total_error = 0.0;
        let mut points = 0u32;
        for h in 1..=max_distance {
            for &q in grid {
                let closed_form = success_probability(geometry, max_distance.max(h), h, q)?;
                let chain = chain_success(h, q)?;
                let error = (closed_form - chain).abs();
                max_error = max_error.max(error);
                total_error += error;
                points += 1;
            }
        }
        rows.push(ValidationRow {
            geometry: geometry.name().to_owned(),
            max_distance,
            points,
            max_absolute_error: max_error,
            mean_absolute_error: total_error / f64::from(points.max(1)),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_match_their_chains_to_high_precision() {
        let rows = run(12, &[0.05, 0.2, 0.5, 0.8]).unwrap();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(
                row.max_absolute_error < 1e-8,
                "{}: max error {}",
                row.geometry,
                row.max_absolute_error
            );
            assert_eq!(row.points, 12 * 4);
        }
    }

    #[test]
    fn mean_error_is_no_larger_than_max_error() {
        let rows = run(8, &[0.1, 0.6]).unwrap();
        for row in &rows {
            assert!(row.mean_absolute_error <= row.max_absolute_error + 1e-15);
        }
    }

    #[test]
    fn invalid_grid_is_rejected() {
        assert!(run(6, &[0.5, 1.0]).is_err());
    }
}
