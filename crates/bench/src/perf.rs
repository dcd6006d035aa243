//! The machine-readable perf trajectory: `BENCH_routing.json`.
//!
//! Five bench targets feed this file — `overlay_routing` (scalar and
//! batched routing per geometry at `2^16` and `2^20`),
//! `fig6_static_resilience` (trial-engine measurement throughput),
//! `live_churn`, `failure_campaigns` and `implicit_routing` (both backends'
//! batched routing up to `2^28`). Each run loads the report, replaces its
//! own entries (matched by bench name, mode, geometry, bits and failure
//! probability) and writes it back, so the file accumulates the full
//! trajectory regardless of which bench ran last. Entries are never
//! removed: CI checks that the committed keys equal the keys the benches
//! write. A missing report starts fresh; an existing one that does not
//! parse is an error, never silently replaced.
//!
//! Environment contract (all optional):
//!
//! * `BENCH_SMOKE=1` — fewer samples and routes per sample; the schema and
//!   entry set stay identical, so smoke runs remain comparable.
//! * `BENCH_OUTPUT=<path>` — write the report there instead of the committed
//!   `BENCH_routing.json` at the workspace root.
//! * `BENCH_BASELINE=<path>` — after measuring, compare against the report
//!   at `<path>` and **exit non-zero** when any matching entry's median
//!   ns/route or ns/hop regressed more than [`DEFAULT_TOLERANCE`] (25 %),
//!   or when that report is missing, unreadable or unparseable.

use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema tag written into every report.
///
/// `v2` added [`RoutingBenchEntry::median_ns_per_hop`] (the compiled-kernel
/// per-hop trajectory); v1 reports are regenerated rather than migrated.
pub const SCHEMA: &str = "dht-bench/routing-v2";

/// The regression tolerance of the `BENCH_BASELINE` gate: fail when a
/// median is >25% slower.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// One measured configuration of a routing bench.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingBenchEntry {
    /// Bench target that produced the entry (`overlay_routing`,
    /// `fig6_static_resilience`).
    pub bench: String,
    /// Measurement budget the entry was taken under (`full` or `smoke`).
    /// Medians are only comparable within a mode — smoke samples run
    /// shorter and colder — so the baseline gate never compares across
    /// modes.
    pub mode: String,
    /// Geometry name (`ring`, `xor`, `hypercube`, `tree`, `symphony`).
    pub geometry: String,
    /// Identifier length of the overlay (`2^bits` nodes).
    pub bits: u32,
    /// Node failure probability of the frozen mask routed under.
    pub failure_probability: f64,
    /// Median wall-clock nanoseconds per routed message.
    pub median_ns_per_route: f64,
    /// Median wall-clock nanoseconds per executed hop (`median_ns_per_route`
    /// over the mean hops per route of the measured pair set), or `None`
    /// when the bench does not measure hops. Kernel entries report this — it
    /// is the number the per-hop optimisation work moves. `Option` keeps
    /// schema-v1 reports (which predate the field) loadable: a missing field
    /// reads as "not measured" instead of poisoning the whole report.
    pub median_ns_per_hop: Option<f64>,
    /// Routes per second implied by the median.
    pub routes_per_sec: f64,
    /// Routes timed per sample.
    pub routes_per_sample: u64,
    /// Samples the median was taken over.
    pub samples: u64,
}

impl RoutingBenchEntry {
    fn matches(&self, other: &RoutingBenchEntry) -> bool {
        self.bench == other.bench
            && self.mode == other.mode
            && self.geometry == other.geometry
            && self.bits == other.bits
            && self.failure_probability == other.failure_probability
    }

    /// Human-readable key, e.g. `overlay_routing/ring/2^16/q=0.30/full`.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}/{}/2^{}/q={:.2}/{}",
            self.bench, self.geometry, self.bits, self.failure_probability, self.mode
        )
    }
}

/// The whole `BENCH_routing.json` document.
///
/// The report accumulates entries of both measurement modes; each entry
/// carries its own `mode`, so there is deliberately no report-level mode
/// field to go stale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingBenchReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// All measured entries, stable-ordered by key.
    pub entries: Vec<RoutingBenchEntry>,
}

impl Default for RoutingBenchReport {
    fn default() -> Self {
        RoutingBenchReport::new()
    }
}

impl RoutingBenchReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        RoutingBenchReport {
            schema: SCHEMA.to_owned(),
            entries: Vec::new(),
        }
    }

    /// Replaces every entry matching one of `fresh` (same bench, mode,
    /// geometry, bits and failure probability) and appends the rest, keeping
    /// the report sorted by key.
    pub fn upsert(&mut self, fresh: Vec<RoutingBenchEntry>) {
        self.entries
            .retain(|existing| !fresh.iter().any(|entry| entry.matches(existing)));
        self.entries.extend(fresh);
        self.entries.sort_by_key(RoutingBenchEntry::key);
    }
}

/// `true` when `BENCH_SMOKE` requests the reduced measurement budget.
#[must_use]
pub fn smoke_mode() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// The workspace root (two levels above this crate's manifest).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Resolves a path from the environment against the workspace root, so
/// `BENCH_BASELINE=BENCH_routing.json` works no matter which directory cargo
/// runs the bench binary from.
fn resolve(path: PathBuf) -> PathBuf {
    if path.is_absolute() {
        path
    } else {
        workspace_root().join(path)
    }
}

/// Where to write the report: `BENCH_OUTPUT`, or the committed
/// `BENCH_routing.json` at the workspace root. Relative paths resolve
/// against the workspace root.
#[must_use]
pub fn output_path() -> PathBuf {
    std::env::var_os("BENCH_OUTPUT").map_or_else(
        || workspace_root().join("BENCH_routing.json"),
        |path| resolve(PathBuf::from(path)),
    )
}

/// The committed baseline to enforce, when `BENCH_BASELINE` is set.
/// Relative paths resolve against the workspace root.
#[must_use]
pub fn baseline_path() -> Option<PathBuf> {
    std::env::var_os("BENCH_BASELINE").map(|path| resolve(PathBuf::from(path)))
}

/// Loads a report: `Ok(None)` when no file exists at `path`.
///
/// # Errors
///
/// A file that exists but cannot be read or does not parse as a report is
/// an error, never an empty report: callers must not overwrite a trajectory
/// or pass a gate they could not read.
pub fn load_report(path: &Path) -> io::Result<Option<RoutingBenchReport>> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(err),
    };
    serde_json::from_str(&text).map(Some).map_err(|err| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not a bench report: {err}", path.display()),
        )
    })
}

/// Merges `fresh` entries into the report at [`output_path`] and writes it
/// back (pretty-printed, trailing newline). A missing report starts fresh.
///
/// # Errors
///
/// Propagates filesystem errors, and refuses to touch an existing report
/// that cannot be read or parsed.
pub fn merge_into_output(fresh: Vec<RoutingBenchEntry>) -> io::Result<RoutingBenchReport> {
    merge_into(&output_path(), fresh)
}

fn merge_into(path: &Path, fresh: Vec<RoutingBenchEntry>) -> io::Result<RoutingBenchReport> {
    let mut report = load_report(path)?.unwrap_or_default();
    report.schema = SCHEMA.to_owned();
    report.upsert(fresh);
    let mut text = serde_json::to_string_pretty(&report).expect("report serialises");
    text.push('\n');
    std::fs::write(path, text)?;
    println!(
        "wrote {} entries to {}",
        report.entries.len(),
        path.display()
    );
    Ok(report)
}

/// Compares `current` entries against the baseline report named by
/// `BENCH_BASELINE` and returns every regression message; an empty vector
/// means the trajectory held (or no baseline was requested).
///
/// # Errors
///
/// A requested baseline that is missing, unreadable or unparseable is an
/// error: the gate must not pass against a file it could not read.
pub fn baseline_regressions(current: &[RoutingBenchEntry]) -> io::Result<Vec<String>> {
    match baseline_path() {
        Some(path) => regressions_against(&path, current, DEFAULT_TOLERANCE),
        None => Ok(Vec::new()),
    }
}

fn regressions_against(
    path: &Path,
    current: &[RoutingBenchEntry],
    allowed: f64,
) -> io::Result<Vec<String>> {
    let baseline = load_report(path)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("no baseline report at {}", path.display()),
        )
    })?;
    let mut regressions = Vec::new();
    for entry in current {
        let Some(base) = baseline.entries.iter().find(|b| b.matches(entry)) else {
            continue;
        };
        let limit = base.median_ns_per_route * (1.0 + allowed);
        if entry.median_ns_per_route > limit {
            regressions.push(format!(
                "{}: {:.1} ns/route vs baseline {:.1} ns/route (+{:.0}% > +{:.0}% allowed)",
                entry.key(),
                entry.median_ns_per_route,
                base.median_ns_per_route,
                100.0 * (entry.median_ns_per_route / base.median_ns_per_route - 1.0),
                100.0 * allowed,
            ));
        }
        // The per-hop trajectory is gated too, where both sides measured it.
        if let (Some(current_hop), Some(base_hop)) =
            (entry.median_ns_per_hop, base.median_ns_per_hop)
        {
            if base_hop > 0.0 && current_hop > base_hop * (1.0 + allowed) {
                regressions.push(format!(
                    "{}: {:.1} ns/hop vs baseline {:.1} ns/hop (+{:.0}% > +{:.0}% allowed)",
                    entry.key(),
                    current_hop,
                    base_hop,
                    100.0 * (current_hop / base_hop - 1.0),
                    100.0 * allowed,
                ));
            }
        }
    }
    Ok(regressions)
}

/// Prints regressions and exits non-zero if there are any; call at the end
/// of a bench `main`.
pub fn enforce_baseline(current: &[RoutingBenchEntry]) {
    let regressions = baseline_regressions(current).unwrap_or_else(|err| {
        eprintln!("perf baseline unusable: {err}");
        std::process::exit(1);
    });
    if regressions.is_empty() {
        if baseline_path().is_some() {
            println!(
                "perf trajectory held (tolerance +{:.0}%)",
                100.0 * DEFAULT_TOLERANCE
            );
        }
        return;
    }
    eprintln!("perf trajectory regressed:");
    for regression in &regressions {
        eprintln!("  {regression}");
    }
    std::process::exit(1);
}

/// Times `routes_per_sample` invocations of `route_one` per sample and
/// returns the median nanoseconds per invocation over `samples` samples.
/// One untimed warm-up sample runs first so cold caches do not land in the
/// median.
pub fn measure_median_ns<F: FnMut()>(
    routes_per_sample: u64,
    samples: u64,
    mut route_one: F,
) -> f64 {
    let samples = samples.max(1);
    let routes_per_sample = routes_per_sample.max(1);
    for _ in 0..routes_per_sample {
        route_one();
    }
    let mut timings: Vec<f64> = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..routes_per_sample {
            route_one();
        }
        timings.push(start.elapsed().as_nanos() as f64 / routes_per_sample as f64);
    }
    timings.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    timings[timings.len() / 2]
}

/// Builds an entry from a measured median.
#[must_use]
pub fn entry(
    bench: &str,
    geometry: &str,
    bits: u32,
    failure_probability: f64,
    median_ns_per_route: f64,
    routes_per_sample: u64,
    samples: u64,
) -> RoutingBenchEntry {
    RoutingBenchEntry {
        bench: bench.to_owned(),
        mode: if smoke_mode() { "smoke" } else { "full" }.to_owned(),
        geometry: geometry.to_owned(),
        bits,
        failure_probability,
        median_ns_per_route,
        median_ns_per_hop: None,
        routes_per_sec: if median_ns_per_route > 0.0 {
            1e9 / median_ns_per_route
        } else {
            0.0
        },
        routes_per_sample,
        samples,
    }
}

impl RoutingBenchEntry {
    /// Attaches a measured per-hop median (`median_ns_per_route` divided by
    /// the mean hops per route of the measured pair set).
    #[must_use]
    pub fn with_ns_per_hop(mut self, median_ns_per_hop: f64) -> Self {
        self.median_ns_per_hop = Some(median_ns_per_hop);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry(geometry: &str, bits: u32, ns: f64) -> RoutingBenchEntry {
        entry("overlay_routing", geometry, bits, 0.3, ns, 1000, 5)
    }

    #[test]
    fn upsert_replaces_matching_entries_and_sorts() {
        let mut report = RoutingBenchReport::new();
        report.upsert(vec![sample_entry("ring", 16, 100.0)]);
        report.upsert(vec![
            sample_entry("ring", 16, 90.0),
            sample_entry("xor", 16, 80.0),
        ]);
        assert_eq!(report.entries.len(), 2);
        assert_eq!(report.entries[0].geometry, "ring");
        assert_eq!(report.entries[0].median_ns_per_route, 90.0);
        // Different bits are a different configuration, not a replacement.
        report.upsert(vec![sample_entry("ring", 20, 500.0)]);
        assert_eq!(report.entries.len(), 3);
    }

    #[test]
    fn report_round_trips_through_serde() {
        let mut report = RoutingBenchReport::new();
        report.upsert(vec![sample_entry("tree", 16, 42.5)]);
        let json = serde_json::to_string(&report).unwrap();
        let back: RoutingBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn entry_derives_routes_per_sec() {
        let e = sample_entry("ring", 16, 200.0);
        assert!((e.routes_per_sec - 5_000_000.0).abs() < 1e-6);
        assert_eq!(e.key(), "overlay_routing/ring/2^16/q=0.30/full");
        assert_eq!(e.median_ns_per_hop, None, "per-hop is opt-in");
        let hopped = e.with_ns_per_hop(25.0);
        assert_eq!(hopped.median_ns_per_hop, Some(25.0));
    }

    #[test]
    fn per_hop_medians_survive_serde() {
        let mut report = RoutingBenchReport::new();
        report.upsert(vec![sample_entry("ring", 20, 80.0).with_ns_per_hop(11.5)]);
        let json = serde_json::to_string(&report).unwrap();
        let back: RoutingBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.entries[0].median_ns_per_hop, Some(11.5));
        assert_eq!(back.schema, SCHEMA);
    }

    #[test]
    fn v1_reports_without_the_per_hop_field_still_load() {
        // The committed baseline predating schema v2 must not be wiped by a
        // bench that fails to parse it: a missing median_ns_per_hop reads as
        // "not measured".
        let v1 = r#"{
            "schema": "dht-bench/routing-v1",
            "entries": [{
                "bench": "overlay_routing", "mode": "full", "geometry": "ring",
                "bits": 16, "failure_probability": 0.3,
                "median_ns_per_route": 100.0, "routes_per_sec": 1e7,
                "routes_per_sample": 1000, "samples": 5
            }]
        }"#;
        let report: RoutingBenchReport = serde_json::from_str(v1).unwrap();
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.entries[0].median_ns_per_hop, None);
    }

    /// A scratch path unique to this process and test.
    fn scratch_file(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dht-bench-perf-{}-{name}.json", std::process::id()))
    }

    #[test]
    fn merge_refuses_to_replace_an_unparseable_report() {
        let path = scratch_file("merge-unparseable");
        std::fs::write(&path, "{ not a report").unwrap();
        let err = merge_into(&path, vec![sample_entry("ring", 16, 1.0)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{ not a report");
        // A missing report is a fresh start.
        std::fs::remove_file(&path).unwrap();
        let report = merge_into(&path, vec![sample_entry("ring", 16, 1.0)]).unwrap();
        assert_eq!(report.entries.len(), 1);
        assert_eq!(load_report(&path).unwrap(), Some(report));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_unreadable_baseline_fails_the_gate() {
        let current = [sample_entry("ring", 16, 1.0)];
        let path = scratch_file("baseline-unparseable");
        std::fs::write(&path, "[]").unwrap();
        assert!(regressions_against(&path, &current, DEFAULT_TOLERANCE).is_err());
        std::fs::remove_file(&path).unwrap();
        let err = regressions_against(&path, &current, DEFAULT_TOLERANCE).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn measure_median_ns_is_positive_and_finite() {
        let mut counter = 0u64;
        let ns = measure_median_ns(100, 3, || counter = counter.wrapping_add(1));
        assert!(ns.is_finite() && ns >= 0.0);
        // 3 timed samples plus 1 warm-up sample.
        assert_eq!(counter, 400);
    }
}
