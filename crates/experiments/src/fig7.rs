//! Experiments E5/E6 — Fig. 7: asymptotic behaviour of the five geometries.
//!
//! Fig. 7(a) evaluates the analytical failed-path percentage at `N = 2^100`
//! across the failure-probability axis; Fig. 7(b) fixes `q = 0.1` and sweeps
//! the system size, exposing the scalable/unscalable split of §5. Both are
//! purely analytical (no simulation is possible at those sizes — the paper's
//! curves are analytical too).

use dht_rcm_core::{routability, Geometry, RcmError, RoutingGeometry, SystemSize};
use dht_sim::SimulationRecord;
use serde::{Deserialize, Serialize};

/// The five geometries of Fig. 7, Symphony with `k_n` near neighbours and
/// `k_s` shortcuts (the paper uses `k_n = k_s = 1`).
fn geometries(near_neighbors: u32, shortcuts: u32) -> Result<Vec<Geometry>, RcmError> {
    Ok(vec![
        Geometry::tree(),
        Geometry::hypercube(),
        Geometry::xor(),
        Geometry::ring(),
        Geometry::symphony(near_neighbors, shortcuts)?,
    ])
}

/// Runs Fig. 7(a): failed-path percentage vs failure probability at the
/// asymptotic size `2^asymptotic_bits` (the paper uses `2^100`). Grid points
/// where the system degenerates are skipped.
///
/// # Errors
///
/// Returns [`RcmError`] for invalid configuration parameters.
pub fn fig7a(
    asymptotic_bits: u32,
    grid: &[f64],
    symphony_near_neighbors: u32,
    symphony_shortcuts: u32,
) -> Result<Vec<SimulationRecord>, RcmError> {
    let size = SystemSize::power_of_two(asymptotic_bits)?;
    let mut records = Vec::new();
    for geometry in geometries(symphony_near_neighbors, symphony_shortcuts)? {
        for &q in grid {
            match routability(&geometry, size, q) {
                Ok(report) => records.push(SimulationRecord::analytical(
                    "fig7a",
                    geometry.name(),
                    asymptotic_bits,
                    q,
                    report.failed_path_percent,
                )),
                Err(RcmError::DegenerateSystem { .. }) => continue,
                Err(other) => return Err(other),
            }
        }
    }
    Ok(records)
}

/// One point of the Fig. 7(b) routability-vs-size sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7bPoint {
    /// Geometry name.
    pub geometry: String,
    /// Identifier length (system size is `2^bits`).
    pub bits: u32,
    /// Routability (in percent, the paper's Fig. 7b y-axis).
    pub routability_percent: f64,
}

/// Runs Fig. 7(b): routability vs system size `2^bits` for each of
/// `size_bits` at the fixed failure probability `q` (the paper uses 0.1).
///
/// # Errors
///
/// Returns [`RcmError`] for invalid configuration parameters.
pub fn fig7b(
    q: f64,
    size_bits: &[u32],
    symphony_near_neighbors: u32,
    symphony_shortcuts: u32,
) -> Result<Vec<Fig7bPoint>, RcmError> {
    let mut points = Vec::new();
    for geometry in geometries(symphony_near_neighbors, symphony_shortcuts)? {
        for &bits in size_bits {
            let size = SystemSize::power_of_two(bits)?;
            match routability(&geometry, size, q) {
                Ok(report) => points.push(Fig7bPoint {
                    geometry: geometry.name().to_owned(),
                    bits,
                    routability_percent: 100.0 * report.routability,
                }),
                Err(RcmError::DegenerateSystem { .. }) => continue,
                Err(other) => return Err(other),
            }
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke panels of `Family::Fig7a.default_spec(true)`.
    fn smoke_7a() -> Vec<SimulationRecord> {
        fig7a(100, &dht_mathkit::percent_grid(80, 20), 1, 1).unwrap()
    }

    fn smoke_7b() -> Vec<Fig7bPoint> {
        fig7b(0.1, &[10, 16, 22, 28, 34], 1, 1).unwrap()
    }

    #[test]
    fn fig7a_separates_scalable_from_unscalable_geometries() {
        let records = smoke_7a();
        // At q = 20% and N = 2^100, tree and Symphony have lost essentially
        // every path while the scalable three keep most of them.
        let failed = |name: &str| {
            records
                .iter()
                .find(|r| r.geometry == name && (r.failure_probability - 0.2).abs() < 1e-9)
                .and_then(|r| r.analytical_failed_percent)
                .unwrap()
        };
        assert!(failed("tree") > 99.0);
        assert!(failed("symphony") > 99.0);
        assert!(failed("hypercube") < 30.0);
        assert!(failed("xor") < 30.0);
        assert!(failed("ring") < 30.0);
    }

    #[test]
    fn fig7a_step_like_curves_for_unscalable_geometries() {
        // The paper notes the tree and Symphony curves at N = 2^100 are close
        // to a step function: essentially zero failed paths at q = 0 and
        // essentially all paths failed for any q > 0.
        let records = smoke_7a();
        for name in ["tree", "symphony"] {
            let at_zero = records
                .iter()
                .find(|r| r.geometry == name && r.failure_probability == 0.0)
                .and_then(|r| r.analytical_failed_percent)
                .unwrap();
            assert!(at_zero < 1e-6, "{name} at q=0: {at_zero}");
        }
    }

    #[test]
    fn fig7b_shows_decay_only_for_unscalable_geometries() {
        let points = smoke_7b();
        let series = |name: &str| -> Vec<f64> {
            points
                .iter()
                .filter(|p| p.geometry == name)
                .map(|p| p.routability_percent)
                .collect()
        };
        for name in ["tree", "symphony"] {
            let values = series(name);
            assert!(
                values.last().unwrap() < &(values.first().unwrap() * 0.5),
                "{name} should decay: {values:?}"
            );
        }
        for name in ["hypercube", "xor", "ring"] {
            let values = series(name);
            assert!(
                values.last().unwrap() > &90.0,
                "{name} should stay routable: {values:?}"
            );
            assert!(
                (values.first().unwrap() - values.last().unwrap()).abs() < 3.0,
                "{name} should stay flat: {values:?}"
            );
        }
    }

    #[test]
    fn fig7_record_counts_match_configuration() {
        assert_eq!(
            smoke_7a().len(),
            5 * 5,
            "five geometries x five grid points"
        );
        assert_eq!(smoke_7b().len(), 5 * 5, "five geometries x five sizes");
    }
}
