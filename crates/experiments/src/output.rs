//! Result rendering and persistence shared by every front end.
//!
//! All report emission goes through one [`ReportWriter`]: the batch runner
//! behind `scenario run` writes [`ScenarioReport`] envelopes (and, for the
//! Fig. 6/7 record families, companion CSV) to one output directory, in
//! pretty or compact JSON.

use crate::spec::ScenarioReport;
use dht_sim::{write_csv, SimError, SimulationRecord};
use serde::Serialize;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Renders records as a fixed-width text table (what `scenario run` prints).
#[must_use]
pub fn render_records_table(records: &[SimulationRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<10} {:>5} {:>6} {:>12} {:>9} {:>12} {:>8}",
        "experiment", "geometry", "bits", "q", "analytic %", "sim bits", "simulated %", "slack"
    );
    for record in records {
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:>5} {:>6.2} {:>12} {:>9} {:>12} {:>8}",
            record.experiment,
            record.geometry,
            record.bits,
            record.failure_probability,
            format_option(record.analytical_failed_percent),
            record
                .simulated_bits
                .map_or_else(|| "-".to_owned(), |bits| bits.to_string()),
            format_option(record.simulated_failed_percent),
            format_option(record.slack()),
        );
    }
    out
}

fn format_option(value: Option<f64>) -> String {
    value.map_or_else(|| "-".to_owned(), |v| format!("{v:.2}"))
}

/// How a [`ReportWriter`] serializes JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportMode {
    /// Human-oriented, indented JSON (`scenario run --pretty`).
    #[default]
    Pretty,
    /// Single-line JSON (the batch runner and server cache format).
    Compact,
}

/// The one place experiment results hit disk: writes report envelopes and
/// companion CSV under an output directory, creating it on demand.
#[derive(Debug, Clone)]
pub struct ReportWriter {
    dir: PathBuf,
    mode: ReportMode,
}

impl ReportWriter {
    /// A pretty-printing writer rooted at `dir`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ReportWriter {
            dir: dir.into(),
            mode: ReportMode::Pretty,
        }
    }

    /// Replaces the serialization mode.
    #[must_use]
    pub fn with_mode(mut self, mode: ReportMode) -> Self {
        self.mode = mode;
        self
    }

    /// The directory reports land in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes `report` to `<dir>/<sanitized name>.json` and returns the path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] on filesystem errors.
    pub fn write_report(&self, report: &ScenarioReport) -> Result<PathBuf, SimError> {
        self.write_json(report, &sanitize_stem(&report.name))
    }

    /// Writes any serializable value to `<dir>/<name>.json` in this writer's
    /// mode and returns the path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] on filesystem or serialization errors.
    pub fn write_json<T: Serialize>(&self, value: &T, name: &str) -> Result<PathBuf, SimError> {
        fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!("{name}.json"));
        let json = match self.mode {
            ReportMode::Pretty => serde_json::to_string_pretty(value),
            ReportMode::Compact => serde_json::to_string(value),
        }
        .map_err(|err| SimError::Io {
            message: err.to_string(),
        })?;
        fs::write(&path, json)?;
        Ok(path)
    }

    /// Writes records to `<dir>/<name>.csv` and returns the path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] on filesystem errors.
    pub fn write_csv(&self, records: &[SimulationRecord], name: &str) -> Result<PathBuf, SimError> {
        fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!("{}.csv", sanitize_stem(name)));
        let mut buffer = Vec::new();
        write_csv(records, &mut buffer)?;
        fs::write(&path, buffer)?;
        Ok(path)
    }
}

/// Maps a spec name to a safe file stem: alphanumerics, `-`, `_` and `.`
/// pass through, everything else becomes `_` (so names can never escape the
/// output directory).
#[must_use]
pub fn sanitize_stem(name: &str) -> String {
    let stem: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if stem.trim_matches('.').is_empty() {
        "report".to_owned()
    } else {
        stem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{run_spec, Family};

    fn sample_records() -> Vec<SimulationRecord> {
        vec![
            SimulationRecord::analytical("fig6a", "tree", 16, 0.3, 89.4),
            SimulationRecord::analytical("fig6a", "xor", 16, 0.3, 24.7),
        ]
    }

    #[test]
    fn table_contains_every_record() {
        let table = render_records_table(&sample_records());
        assert!(table.contains("tree"));
        assert!(table.contains("xor"));
        assert!(table.contains("89.40"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn writer_round_trips_reports_and_csv_to_disk() {
        let dir = std::env::temp_dir().join(format!("dht-rcm-test-{}", std::process::id()));
        let outcome = run_spec(&Family::ScalabilityTable.default_spec(true), None).unwrap();
        let writer = ReportWriter::new(&dir);
        let report_path = writer.write_report(&outcome.report).unwrap();
        assert!(report_path.ends_with("scalability_table.json"));
        let text = fs::read_to_string(&report_path).unwrap();
        let back: ScenarioReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, outcome.report);

        let compact = writer.with_mode(ReportMode::Compact);
        let compact_path = compact.write_json(&outcome.report, "compacted").unwrap();
        let compact_text = fs::read_to_string(&compact_path).unwrap();
        assert_eq!(compact_text.lines().count(), 1, "compact mode is one line");
        assert!(text.lines().count() > 1, "pretty mode is indented");

        let records = sample_records();
        let csv_path = ReportWriter::new(&dir)
            .write_csv(&records, "fig6a_test")
            .unwrap();
        let csv = fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("experiment,"));
        assert_eq!(csv.trim().lines().count(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stems_are_sanitized() {
        assert_eq!(sanitize_stem("fig6a_failed_paths"), "fig6a_failed_paths");
        assert_eq!(sanitize_stem("../evil name"), ".._evil_name");
        assert_eq!(sanitize_stem(""), "report");
        assert_eq!(sanitize_stem(".."), "report");
    }
}
