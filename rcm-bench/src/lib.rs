//! End-to-end benchmark of the dht-rcm pipeline, from spec to report.
//!
//! Four workloads drive the repository's public front doors —
//! `dht_scenario::run_directory` and `ReportServer` over TCP loopback —
//! with inputs generated from a seed ([`workload`]). An untraced run
//! ([`run`]) measures the end-to-end metrics and checks every output; a
//! traced run ([`traced`]) redoes the same work from the public calls the
//! front doors make ([`compose`]), spans around each call ([`trace`]), and
//! proves the rebuild faithful by comparing report bytes. See `README.md`
//! beside this crate for the workloads, metrics and bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checks;
pub mod compare;
pub mod compose;
pub mod front;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;

use metrics::Outcome;
use run::RunOptions;
use std::path::Path;

/// Runs one workload, traced or not, and removes its work directory
/// afterwards. Traced runs write their spans to
/// `<trace_dir>/<workload>.json`.
///
/// # Errors
///
/// Returns a message when the run could not proceed at all.
pub fn execute(options: &RunOptions, trace: bool, trace_dir: &Path) -> Result<Outcome, String> {
    let outcome = if trace {
        let trace_file = trace_dir.join(format!("{}.json", options.workload.name()));
        traced::traced(options, &trace_file)
    } else {
        run::untraced(options)
    };
    let _ = std::fs::remove_dir_all(&options.work_dir);
    outcome
}
