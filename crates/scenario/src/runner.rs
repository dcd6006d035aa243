//! The batch runner: execute a directory of spec files (or one spec file)
//! reproducibly.

use dht_experiments::output::{ReportMode, ReportWriter};
use dht_experiments::spec::{
    run_spec, Backend, ExecutionSpec, ScenarioSpec, SpecError, SpecOutcome,
};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Options for [`run_directory`].
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Where reports (and the manifest) are written.
    pub output_dir: PathBuf,
    /// Thread-budget override applied to every spec (results are identical
    /// for any value — the engines are thread-count invariant).
    pub threads: Option<usize>,
    /// Routing-table-backend override applied to every spec (results are
    /// identical either way — the backends are bit-identical wherever both
    /// can run — so, like `threads`, this never changes a report or its
    /// hash).
    pub backend: Option<Backend>,
    /// Report serialization mode.
    pub mode: ReportMode,
}

impl BatchOptions {
    /// Compact-mode options writing to `output_dir`.
    #[must_use]
    pub fn new(output_dir: impl Into<PathBuf>) -> Self {
        BatchOptions {
            output_dir: output_dir.into(),
            threads: None,
            backend: None,
            mode: ReportMode::Compact,
        }
    }
}

/// One row of the batch manifest: which spec file produced which report —
/// or, for a spec that failed to parse, validate or run, what went wrong.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchEntry {
    /// Spec file name (relative to the spec directory).
    pub file: String,
    /// The spec's name label (empty when the file never parsed).
    pub name: String,
    /// The spec's family name (empty when the file never parsed).
    pub family: String,
    /// The spec's canonical content hash (hex; empty when the file never
    /// parsed).
    pub spec_hash: String,
    /// Report file name (relative to the output directory; empty for
    /// failed entries).
    pub report: String,
    /// `None` for a successful run; `Some(message)` when this spec file
    /// failed — the rest of the batch still ran.
    pub error: Option<String>,
}

impl BatchEntry {
    /// A failure row: best-effort identification plus the error message.
    fn failed(file: String, spec: Option<&ScenarioSpec>, error: &SpecError) -> Self {
        BatchEntry {
            file,
            name: spec.map(|spec| spec.name.clone()).unwrap_or_default(),
            family: spec
                .map(|spec| spec.family().name().to_owned())
                .unwrap_or_default(),
            spec_hash: spec.map(ScenarioSpec::content_hash_hex).unwrap_or_default(),
            report: String::new(),
            error: Some(error.to_string()),
        }
    }
}

/// Runs every `*.json` spec in `spec_dir` (sorted by file name, so the
/// batch order — and therefore the manifest — is reproducible), writes one
/// report per spec plus a `manifest.json`, and returns the manifest rows.
///
/// Every report is a pure function of its spec: no timestamps, no
/// environment, and thread-count-invariant engines — so two runs of the
/// same directory produce byte-identical output trees regardless of the
/// thread budget.
///
/// A spec file that fails to parse, validate or run does **not** abort the
/// batch: its manifest row carries the error message (and no report), and
/// every other spec still runs. Callers decide whether a partly-failed
/// batch is fatal by scanning [`BatchEntry::error`].
///
/// # Errors
///
/// Returns [`SpecError`] only on batch-level I/O failures (listing the spec
/// directory, writing reports or the manifest); per-file failures are
/// collected, not returned.
pub fn run_directory(
    spec_dir: &Path,
    options: &BatchOptions,
) -> Result<Vec<BatchEntry>, SpecError> {
    run_batch(spec_dir, options, |_, _| {})
}

/// [`run_directory`] over a spec directory or a single spec file — a file
/// is a one-spec batch with the same report bytes and manifest row it gets
/// in its directory's batch. `on_entry` sees each manifest row as soon as
/// its spec is done, with the run's outcome (`None` for a failed spec), so
/// callers can present results as they arrive.
///
/// # Errors
///
/// As [`run_directory`].
pub fn run_batch<F>(
    path: &Path,
    options: &BatchOptions,
    mut on_entry: F,
) -> Result<Vec<BatchEntry>, SpecError>
where
    F: FnMut(&BatchEntry, Option<&SpecOutcome>),
{
    let spec_files = if path.is_file() {
        vec![path.to_path_buf()]
    } else {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|err| SpecError::Io(format!("reading {}: {err}", path.display())))?
            .filter_map(|entry| entry.ok().map(|entry| entry.path()))
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        files
    };

    let writer = ReportWriter::new(&options.output_dir).with_mode(options.mode);
    let mut manifest = Vec::with_capacity(spec_files.len());
    for path in &spec_files {
        let (entry, outcome) = run_file(path, options, &writer)?;
        on_entry(&entry, outcome.as_ref());
        manifest.push(entry);
    }
    writer.write_json(&manifest, "manifest")?;
    Ok(manifest)
}

/// Runs one spec file and writes its report: the per-file step every batch
/// shares. Parse and run failures become the row's error.
fn run_file(
    path: &Path,
    options: &BatchOptions,
    writer: &ReportWriter,
) -> Result<(BatchEntry, Option<SpecOutcome>), SpecError> {
    let file = path
        .file_name()
        .map(|name| name.to_string_lossy().into_owned())
        .unwrap_or_default();
    let text = std::fs::read_to_string(path)
        .map_err(|err| SpecError::Io(format!("reading {}: {err}", path.display())))?;
    let mut spec = match ScenarioSpec::from_json(&text) {
        Ok(spec) => spec,
        Err(err) => {
            let err = SpecError::Invalid(format!("{}: {err}", path.display()));
            return Ok((BatchEntry::failed(file, None, &err), None));
        }
    };
    if let Some(backend) = options.backend {
        spec.execution = Some(ExecutionSpec {
            threads: spec.threads(),
            backend,
        });
    }
    let outcome = match run_spec(&spec, options.threads) {
        Ok(outcome) => outcome,
        Err(err) => return Ok((BatchEntry::failed(file, Some(&spec), &err), None)),
    };
    let report_path = writer.write_report(&outcome.report)?;
    if let Some(records) = &outcome.csv_records {
        writer.write_csv(records, &outcome.report.name)?;
    }
    let entry = BatchEntry {
        file,
        name: outcome.report.name.clone(),
        family: outcome.report.family.clone(),
        spec_hash: outcome.report.spec_hash.clone(),
        report: report_path
            .file_name()
            .map(|name| name.to_string_lossy().into_owned())
            .unwrap_or_default(),
        error: None,
    };
    Ok((entry, Some(outcome)))
}
