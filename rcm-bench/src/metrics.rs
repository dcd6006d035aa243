//! Metric names, units and the run result line.

use crate::trace::{totals, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, emitted by every untraced run: `(name, unit)`.
/// Failed requests and checks are not a metric: the result line carries
/// them as `failed` out of `attempted`, since a share that reads 0 on every
/// correct run cannot carry a relative regression bound.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, emitted by every traced run: `(name, unit)`. Every
/// time (ms, ns) is one all four workloads exercise, so no time reads a
/// constant 0; a layer that only one workload reaches reports counts,
/// shares and ratios instead, which read 0 where the layer does not run.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("overlay.build_ms", "ms"),
    ("overlay.builds", "count"),
    ("kernel.compile_ms", "ms"),
    ("kernel.plan_mib", "MiB"),
    ("kernel.mask_lower_ms", "ms"),
    ("kernel.route_ms", "ms"),
    ("kernel.routes", "count"),
    ("kernel.hops", "count"),
    ("kernel.ns_per_hop", "ns"),
    ("kernel.delivered_share", "share"),
    ("implicit.rows_generated", "count"),
    ("implicit.row_cache_hit_share_26", "share"),
    ("implicit.row_cache_hit_share_28", "share"),
    ("implicit.ns_per_hop_ratio_28_26", "ratio"),
    ("implicit.resident_kib", "KiB"),
    ("failure.mask_sample_ms", "ms"),
    ("failure.mask_mib", "MiB"),
    ("failure.masks", "count"),
    ("faults.plans_lowered", "count"),
    ("sim.pair_sample_ms", "ms"),
    ("sim.pair_sample_ns_per_pair", "ns"),
    ("sim.fold_ms", "ms"),
    ("sim.shards", "count"),
    ("sim.scaling_efficiency", "ratio"),
    ("sim.campaign_trials", "count"),
    ("sim.events", "count"),
    ("live.rows_repaired", "count"),
    ("live.repair_cost_ratio", "ratio"),
    ("markov.chain_solves", "count"),
    ("markov.chain_solve_ms", "ms"),
    ("markov.chain_hit_share", "share"),
    ("spec.parse_ms", "ms"),
    ("spec.serialize_ms", "ms"),
    ("spec.report_kib", "KiB"),
    ("scenario.write_ms", "ms"),
    ("scenario.miss_handle_ms", "ms"),
    ("scenario.memo_hit_share", "share"),
    ("scenario.overlay_hit_share", "share"),
    ("scenario.writes_per_response", "count"),
    ("net.wait_share", "share"),
    ("trace.coverage", "share"),
    ("trace.overhead_share", "ratio"),
];

const MIB: f64 = 1024.0 * 1024.0;

/// `numerator / denominator`, 0 when the denominator is 0.
#[must_use]
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where `/proc` is
/// unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The outcome of one run: what was attempted, what failed, the metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests (reports or queries) attempted.
    pub attempted: u64,
    /// Failed requests plus failed output checks.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one failure.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failures.push(message.into());
    }

    /// Whether every request and check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`,
    /// with the metrics of `table` in table order.
    #[must_use]
    pub fn result_line(&self, table: &[(&'static str, &'static str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failures.len()
        );
        for (index, (name, unit)) in table.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let separator = if index == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{separator}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// What the traced run measured outside the tracer: whole-run timings and
/// the server edge.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracedExtras {
    /// Untraced front door at one engine thread, seconds.
    pub wall_1_thread_s: f64,
    /// Untraced front door at two engine threads, seconds.
    pub wall_2_threads_s: f64,
    /// The traced work, seconds.
    pub traced_wall_s: f64,
    /// Share of the traced wall time covered by top-level spans.
    pub coverage: f64,
    /// Mean report or response payload size, bytes.
    pub report_bytes: f64,
    /// Median time to produce a report that was not memoized, seconds.
    pub miss_handle_s: f64,
    /// Server edge: memo hits over query requests.
    pub memo_hit_share: f64,
    /// Server edge: overlay-cache hits over overlay lookups.
    pub overlay_hit_share: f64,
    /// Server edge: `write` calls per response.
    pub writes_per_response: f64,
    /// Server edge: client latency outside the server's handle and write,
    /// over client latency.
    pub net_wait_share: f64,
}

/// Fills the per-layer metrics from the traced run.
pub fn layer_metrics(
    tracer: &Tracer,
    extras: &TracedExtras,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let spans = tracer.spans();
    let totals = totals(&spans);
    let total_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let self_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64);
    let ms = |name: &str| total_ns(name) / 1e6;
    let count = |name: &str| tracer.counter(name);
    let hit_share = |bits: u32| {
        let hits = count(&format!("implicit.hits.{bits}"));
        ratio(hits, hits + count(&format!("implicit.misses.{bits}")))
    };
    // Ring is the geometry `implicit_scale` runs at both sizes.
    let ring_ns_per_hop = |bits: u32| {
        ratio(
            count(&format!("implicit.route_ns.ring.{bits}")),
            count(&format!("implicit.hops.ring.{bits}")),
        )
    };
    let per_event = |mode: &str| ratio(self_ns(mode), count(&format!("{mode}.events")));
    let solves = count("markov.solves");

    let values: [(&'static str, f64); 42] = [
        ("overlay.build_ms", ms("overlay.build")),
        ("overlay.builds", count("overlay.builds")),
        ("kernel.compile_ms", ms("kernel.compile")),
        ("kernel.plan_mib", count("kernel.plan_bytes") / MIB),
        ("kernel.mask_lower_ms", ms("kernel.mask_lower")),
        ("kernel.route_ms", ms("kernel.route")),
        ("kernel.routes", count("kernel.routes")),
        ("kernel.hops", count("kernel.hops")),
        (
            "kernel.ns_per_hop",
            ratio(total_ns("kernel.route"), count("kernel.hops")),
        ),
        (
            "kernel.delivered_share",
            ratio(count("kernel.delivered"), count("kernel.routes")),
        ),
        ("implicit.rows_generated", count("implicit.misses")),
        ("implicit.row_cache_hit_share_26", hit_share(26)),
        ("implicit.row_cache_hit_share_28", hit_share(28)),
        (
            "implicit.ns_per_hop_ratio_28_26",
            ratio(ring_ns_per_hop(28), ring_ns_per_hop(26)),
        ),
        (
            "implicit.resident_kib",
            count("implicit.resident_bytes") / 1024.0,
        ),
        ("failure.mask_sample_ms", ms("failure.mask_sample")),
        ("failure.mask_mib", count("failure.mask_bytes") / MIB),
        ("failure.masks", count("failure.masks")),
        ("faults.plans_lowered", count("faults.plans_lowered")),
        ("sim.pair_sample_ms", ms("sim.pair_sample")),
        (
            "sim.pair_sample_ns_per_pair",
            ratio(total_ns("sim.pair_sample"), count("kernel.routes")),
        ),
        ("sim.fold_ms", ms("sim.fold")),
        ("sim.shards", count("sim.shards")),
        (
            "sim.scaling_efficiency",
            ratio(extras.wall_1_thread_s, 2.0 * extras.wall_2_threads_s),
        ),
        ("sim.campaign_trials", count("sim.campaign_trials")),
        ("sim.events", count("sim.events")),
        ("live.rows_repaired", count("live.rows_repaired")),
        (
            "live.repair_cost_ratio",
            ratio(per_event("live.repair"), per_event("live.frozen")),
        ),
        ("markov.chain_solves", solves),
        ("markov.chain_solve_ms", ms("markov.chain_solve")),
        (
            "markov.chain_hit_share",
            ratio(count("markov.hits"), count("markov.hits") + solves),
        ),
        ("spec.parse_ms", ms("spec.parse")),
        ("spec.serialize_ms", ms("spec.serialize")),
        ("spec.report_kib", extras.report_bytes / 1024.0),
        ("scenario.write_ms", ms("scenario.write")),
        ("scenario.miss_handle_ms", extras.miss_handle_s * 1e3),
        ("scenario.memo_hit_share", extras.memo_hit_share),
        ("scenario.overlay_hit_share", extras.overlay_hit_share),
        ("scenario.writes_per_response", extras.writes_per_response),
        ("net.wait_share", extras.net_wait_share),
        ("trace.coverage", extras.coverage),
        (
            "trace.overhead_share",
            ratio(extras.traced_wall_s, extras.wall_1_thread_s),
        ),
    ];
    out.extend(values);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_metrics_cover_the_table_exactly() {
        let tracer = Tracer::new();
        let mut out = BTreeMap::new();
        layer_metrics(&tracer, &TracedExtras::default(), &mut out);
        let names: Vec<&str> = out.keys().copied().collect();
        let mut table: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
        table.sort_unstable();
        assert_eq!(names, table);
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.metrics.insert("wall_s", 1.25);
        let line = outcome.result_line(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mib\": {\"value\": 0, \"unit\": \"MiB\"}"));
        assert!(serde_json::from_str::<serde::Value>(&line).is_ok());
    }
}
