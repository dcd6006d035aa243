//! Experiment E9 — the §1 contrast between connectivity and routability.
//!
//! Percolation theory bounds what any protocol could reach (the connected
//! component); the routing protocol reaches only its *reachable component*.
//! This harness measures both on the same overlay and failure pattern and
//! reports the gap, which is small for the robust geometries and large for
//! the tree.

use crate::spec::{build_overlay, Backend, SpecError};
use dht_overlay::{FailureMask, OverlayError};
use dht_percolation::{connected_components, reachable_component};
use dht_sim::SeedSequence;
use serde::{Deserialize, Serialize};

/// Result of the contrast for one geometry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContrastRow {
    /// Geometry name.
    pub geometry: String,
    /// Identifier length.
    pub bits: u32,
    /// Failure probability applied.
    pub failure_probability: f64,
    /// Number of surviving roots examined.
    pub roots_examined: u32,
    /// Mean connected-component size (including the root) over the examined
    /// roots, as a fraction of the surviving population.
    pub mean_connected_fraction: f64,
    /// Mean reachable-component size (excluding the root) over the examined
    /// roots, as a fraction of the other surviving nodes.
    pub mean_reachable_fraction: f64,
}

impl ContrastRow {
    /// Connectivity-to-routability gap, in fractions of the population.
    #[must_use]
    pub fn gap(&self) -> f64 {
        self.mean_connected_fraction - self.mean_reachable_fraction
    }
}

/// Runs the contrast experiment on the tree, XOR and hypercube overlays.
/// `seed` is split as the static-resilience family splits it:
/// `SeedSequence` child 0 builds each overlay and child 1 draws the failure
/// mask, which is therefore the same for all three.
///
/// # Errors
///
/// Returns [`SpecError::Overlay`] holding [`OverlayError::InvalidParameter`]
/// if `q` is outside `[0, 1]` or `roots` is zero, and propagates overlay
/// construction errors.
pub fn run(bits: u32, q: f64, roots: u32, seed: u64) -> Result<Vec<ContrastRow>, SpecError> {
    crate::check_failure_probability(q)?;
    if roots == 0 {
        return Err(OverlayError::InvalidParameter {
            message: "the contrast needs at least one root".to_owned(),
        }
        .into());
    }
    let seeds = SeedSequence::new(seed);
    let mut rows = Vec::with_capacity(3);
    for name in ["tree", "xor", "hypercube"] {
        let overlay = build_overlay(name, bits, seeds.child(0), Backend::Materialized, 1)?;
        let mask = FailureMask::sample_seeded(overlay.population(), q, seeds.child(1), 1);
        let components = connected_components(overlay.as_ref(), &mask);
        let alive = mask.alive_count();
        let mut connected_total = 0.0;
        let mut reachable_total = 0.0;
        let mut examined = 0u32;
        for root in mask
            .alive_nodes()
            .step_by((alive as usize / roots as usize).max(1))
        {
            if examined >= roots {
                break;
            }
            let component = components.component_size(root).unwrap_or(0);
            let reachable = reachable_component(overlay.as_ref(), root, &mask).len() as u64;
            connected_total += component as f64 / alive as f64;
            reachable_total += reachable as f64 / alive.saturating_sub(1).max(1) as f64;
            examined += 1;
        }
        rows.push(ContrastRow {
            geometry: name.to_owned(),
            bits,
            failure_probability: q,
            roots_examined: examined,
            mean_connected_fraction: connected_total / f64::from(examined.max(1)),
            mean_reachable_fraction: reachable_total / f64::from(examined.max(1)),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachable_never_exceeds_connected() {
        let rows = run(9, 0.3, 10, 3).unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(
                row.mean_reachable_fraction <= row.mean_connected_fraction + 0.02,
                "{}: reachable {} vs connected {}",
                row.geometry,
                row.mean_reachable_fraction,
                row.mean_connected_fraction
            );
            assert_eq!(row.roots_examined, 10);
        }
    }

    #[test]
    fn tree_shows_the_largest_gap() {
        // The tree stays well connected as a graph but cannot route around
        // failures, so its connectivity/routability gap dwarfs the others'.
        let rows = run(9, 0.3, 15, 7).unwrap();
        let gap = |name: &str| rows.iter().find(|r| r.geometry == name).unwrap().gap();
        assert!(gap("tree") > gap("xor"));
        assert!(gap("tree") > gap("hypercube"));
        assert!(gap("tree") > 0.2, "tree gap = {}", gap("tree"));
    }

    #[test]
    fn no_failures_means_no_gap() {
        let rows = run(8, 0.0, 5, 1).unwrap();
        for row in &rows {
            assert!((row.mean_connected_fraction - 1.0).abs() < 1e-9);
            assert!((row.mean_reachable_fraction - 1.0).abs() < 1e-9);
            assert!(row.gap().abs() < 1e-9);
        }
    }
}
