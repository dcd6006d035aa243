//! Machine-readable experiment records and CSV output.

use crate::config::SimError;
use crate::static_resilience::StaticResilienceResult;
use serde::{Deserialize, Serialize};
use std::io::Write;

/// One row of an experiment report: an analytical prediction, a simulated
/// measurement, or both, at one `(geometry, N, q)` point.
///
/// The Fig. 6/7 experiment families in `dht-experiments` emit these records
/// as JSON reports and CSV (via `scenario run`) so EXPERIMENTS.md and
/// downstream plots can be regenerated without re-running anything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationRecord {
    /// Experiment identifier (e.g. `"fig6a"`).
    pub experiment: String,
    /// Geometry name (e.g. `"xor"`).
    pub geometry: String,
    /// Identifier length `d` (system size is `2^d`).
    pub bits: u32,
    /// Node failure probability.
    pub failure_probability: f64,
    /// Analytical failed-path percentage, when available.
    pub analytical_failed_percent: Option<f64>,
    /// Simulated failed-path percentage, when available.
    pub simulated_failed_percent: Option<f64>,
    /// Half-width of the 95% confidence interval on the simulated value (in
    /// percentage points), when available.
    pub simulated_confidence_half_width: Option<f64>,
}

impl SimulationRecord {
    /// Creates a record holding only an analytical prediction.
    #[must_use]
    pub fn analytical(
        experiment: impl Into<String>,
        geometry: impl Into<String>,
        bits: u32,
        q: f64,
        failed_percent: f64,
    ) -> Self {
        SimulationRecord {
            experiment: experiment.into(),
            geometry: geometry.into(),
            bits,
            failure_probability: q,
            analytical_failed_percent: Some(failed_percent),
            simulated_failed_percent: None,
            simulated_confidence_half_width: None,
        }
    }

    /// Attaches a simulated measurement to the record.
    #[must_use]
    pub fn with_simulation(mut self, result: &StaticResilienceResult) -> Self {
        self.simulated_failed_percent = Some(result.failed_path_percent);
        self.simulated_confidence_half_width = Some(result.confidence.half_width() * 100.0);
        self
    }

    /// Absolute difference between the analytical and simulated failed-path
    /// percentages, when both are present.
    #[must_use]
    pub fn absolute_gap(&self) -> Option<f64> {
        match (
            self.analytical_failed_percent,
            self.simulated_failed_percent,
        ) {
            (Some(a), Some(s)) => Some((a - s).abs()),
            _ => None,
        }
    }
}

/// Writes records as CSV with a header row.
///
/// # Errors
///
/// Returns [`SimError::Io`] if writing fails.
///
/// # Example
///
/// ```rust
/// use dht_sim::{write_csv, SimulationRecord};
///
/// let records = vec![SimulationRecord::analytical("fig6a", "xor", 16, 0.3, 24.7)];
/// let mut out = Vec::new();
/// write_csv(&records, &mut out)?;
/// let text = String::from_utf8(out).unwrap();
/// assert!(text.starts_with("experiment,geometry,bits,"));
/// assert!(text.contains("fig6a,xor,16,"));
/// # Ok::<(), dht_sim::SimError>(())
/// ```
pub fn write_csv<W: Write>(records: &[SimulationRecord], writer: &mut W) -> Result<(), SimError> {
    writeln!(
        writer,
        "experiment,geometry,bits,failure_probability,analytical_failed_percent,simulated_failed_percent,simulated_confidence_half_width"
    )?;
    for record in records {
        writeln!(
            writer,
            "{},{},{},{},{},{},{}",
            record.experiment,
            record.geometry,
            record.bits,
            record.failure_probability,
            format_optional(record.analytical_failed_percent),
            format_optional(record.simulated_failed_percent),
            format_optional(record.simulated_confidence_half_width),
        )?;
    }
    Ok(())
}

fn format_optional(value: Option<f64>) -> String {
    value.map_or_else(String::new, |v| format!("{v:.6}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_mathkit::stats::ConfidenceInterval;

    fn fake_result(failed_percent: f64) -> StaticResilienceResult {
        StaticResilienceResult {
            geometry: "xor".into(),
            bits: 16,
            failure_probability: 0.3,
            occupied_nodes: 1 << 16,
            trials: 1,
            pairs_attempted: 1000,
            pairs_delivered: 753,
            routability: 1.0 - failed_percent / 100.0,
            failed_path_percent: failed_percent,
            confidence: ConfidenceInterval {
                mean: 0.753,
                lower: 0.726,
                upper: 0.779,
                level: 0.95,
            },
            mean_hops: 8.1,
            max_hops: 14,
            surviving_fraction: 0.7,
        }
    }

    #[test]
    fn analytical_record_has_no_simulation_fields() {
        let record = SimulationRecord::analytical("fig7a", "tree", 100, 0.1, 99.9);
        assert_eq!(record.analytical_failed_percent, Some(99.9));
        assert_eq!(record.simulated_failed_percent, None);
        assert_eq!(record.absolute_gap(), None);
    }

    #[test]
    fn attaching_a_simulation_fills_the_gap() {
        let record = SimulationRecord::analytical("fig6a", "xor", 16, 0.3, 24.7)
            .with_simulation(&fake_result(24.0));
        assert_eq!(record.simulated_failed_percent, Some(24.0));
        assert!((record.absolute_gap().unwrap() - 0.7).abs() < 1e-9);
        assert!(record.simulated_confidence_half_width.unwrap() > 0.0);
    }

    #[test]
    fn csv_has_one_line_per_record_plus_header() {
        let records = vec![
            SimulationRecord::analytical("fig6a", "tree", 16, 0.1, 65.0),
            SimulationRecord::analytical("fig6a", "xor", 16, 0.1, 3.2)
                .with_simulation(&fake_result(3.4)),
        ];
        let mut out = Vec::new();
        write_csv(&records, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("fig6a,tree,16,0.1,65"));
        assert!(lines[2].contains(",3.4"));
    }

    #[test]
    fn records_round_trip_through_json() {
        let record = SimulationRecord::analytical("fig6b", "ring", 16, 0.2, 10.0)
            .with_simulation(&fake_result(8.0));
        let json = serde_json::to_string(&record).unwrap();
        let back: SimulationRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(record, back);
    }
}
