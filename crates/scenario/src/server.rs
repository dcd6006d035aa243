//! The memoizing report server: a persistent line-delimited-JSON service
//! answering spec queries from caches wherever possible.
//!
//! ## Wire protocol
//!
//! One JSON request envelope per line, one JSON response per line:
//!
//! ```text
//! → {"id": 1, "request": {"Query": {"query": {"geometry": "ring", "bits": 10, "failure_probability": 0.3}}}}
//! ← {"id": 1, "ok": {"schema": "dht-scenario-report/v1", ...}}
//! → {"id": 2, "request": "Stats"}
//! ← {"id": 2, "ok": {"requests": 1, "report_hits": 0, ...}}
//! ```
//!
//! Errors come back as `{"id": N, "err": "message"}`. Responses to
//! identical report requests are spliced from the memo table verbatim, so
//! they are byte-identical — the cache key is the spec's canonical content
//! hash, which ignores the `name` label and thread budget but nothing else.

use crate::cache::{OverlayCache, ServerStats};
use dht_experiments::spec::{
    run_spec, static_resilience_report_with, Backend, ExecutionSpec, ExperimentSpec,
    ScenarioReport, ScenarioSpec, SpecError, REPORT_SCHEMA,
};
use dht_markov::ChainCache;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpListener;

/// The sugar form of the server's core question: "N (= 2^bits), geometry,
/// q → resilience + scalability report". Desugars to a canonical
/// [`ExperimentSpec::StaticResilience`] spec, so two clients asking the
/// same question hit the same cache entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Geometry name (`ring`, `xor`, `tree`, `hypercube`, `symphony`).
    pub geometry: String,
    /// Identifier length (`N = 2^bits`).
    pub bits: u32,
    /// Node failure probability `q`.
    pub failure_probability: f64,
    /// Source/destination pairs (default 20 000, the paper's Fig. 6 budget).
    pub pairs: Option<u64>,
    /// Independent failure patterns averaged (default 1).
    pub trials: Option<u32>,
    /// Root seed (default 2006).
    pub seed: Option<u64>,
    /// Routing-table backend (default materialized). The backend never
    /// enters the cache key — both backends answer byte-identically — so an
    /// implicit query can be answered from a materialized memo and vice
    /// versa.
    pub backend: Option<Backend>,
}

impl Query {
    /// The canonical spec this query desugars to.
    #[must_use]
    pub fn to_spec(&self) -> ScenarioSpec {
        let mut spec = ScenarioSpec::static_resilience(
            &self.geometry,
            self.bits,
            self.failure_probability,
            self.pairs.unwrap_or(20_000),
            self.trials.unwrap_or(1),
            self.seed.unwrap_or(2006),
        );
        if let Some(backend) = self.backend {
            spec.execution = Some(ExecutionSpec {
                threads: 1,
                backend,
            });
        }
        spec
    }
}

/// A request body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Run (or recall) a full spec and return its report.
    Report {
        /// The spec to answer.
        spec: ScenarioSpec,
    },
    /// The static-resilience sugar form (see [`Query`]).
    Query {
        /// The query to answer.
        query: Query,
    },
    /// Return the canonical content hash of a spec without running it.
    Hash {
        /// The spec to hash.
        spec: ScenarioSpec,
    },
    /// Return the server's work and cache counters.
    Stats,
    /// Acknowledge and stop serving: [`ReportServer::serve`] returns after
    /// answering this request, and [`ReportServer::serve_tcp`] stops
    /// accepting connections — a clean alternative to killing the process.
    Shutdown,
}

/// One request line: an id (echoed in the response) and a body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Client-chosen correlation id, echoed verbatim.
    pub id: u64,
    /// The request body.
    pub request: Request,
}

/// The memoizing report server.
///
/// Three cache layers, coarse to fine:
///
/// 1. **Reports** — finished compact-JSON reports keyed by spec content
///    hash; a hit is answered without touching anything else.
/// 2. **Overlays** — built overlays (kernel pre-compiled) keyed by
///    `(geometry, bits, seed)`, shared across *different* static-resilience
///    queries (same ring, different `q`).
/// 3. **Chain solves** — Markov-chain success probabilities keyed by
///    `(family, hops, q)`, shared across queries and grid points.
pub struct ReportServer {
    reports: HashMap<u64, String>,
    overlays: OverlayCache,
    chains: ChainCache,
    stats: ServerStats,
    threads: usize,
    shutdown: bool,
}

impl ReportServer {
    /// A fresh server running specs with the given thread budget.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        ReportServer {
            reports: HashMap::new(),
            overlays: OverlayCache::new(),
            chains: ChainCache::new(),
            stats: ServerStats::default(),
            threads: threads.max(1),
            shutdown: false,
        }
    }

    /// Whether a [`Request::Shutdown`] has been acknowledged. The serve
    /// loops consult this after every response; between loops it stays
    /// set, so a shut-down server does not resume serving.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// A snapshot of the work counters, with the cache-layer counters
    /// folded in.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            overlay_builds: self.overlays.builds(),
            overlay_hits: self.overlays.hits(),
            kernel_compiles: self.overlays.kernel_compiles(),
            chain_solves: self.chains.solves(),
            chain_hits: self.chains.hits(),
            ..self.stats
        }
    }

    /// Answers a spec with its compact report JSON, from cache when the
    /// spec's content hash has been seen before.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the spec is invalid or its run fails;
    /// failures are not cached.
    pub fn report_json(&mut self, spec: &ScenarioSpec) -> Result<String, SpecError> {
        spec.validate()?;
        let hash = spec.content_hash();
        if let Some(cached) = self.reports.get(&hash) {
            self.stats.report_hits += 1;
            return Ok(cached.clone());
        }
        self.stats.report_misses += 1;
        let report = self.execute(spec)?;
        self.stats.trial_runs += 1;
        let json = serde_json::to_string(&report).map_err(|err| SpecError::Io(err.to_string()))?;
        self.reports.insert(hash, json.clone());
        Ok(json)
    }

    /// Runs a spec for real, routing the static-resilience family through
    /// the overlay and chain caches.
    fn execute(&mut self, spec: &ScenarioSpec) -> Result<ScenarioReport, SpecError> {
        if let ExperimentSpec::StaticResilience {
            geometry,
            bits,
            grid,
            pairs,
            trials,
        } = &spec.experiment
        {
            let overlay = self.overlays.get_or_build(
                geometry,
                *bits,
                spec.seed,
                spec.backend(),
                self.threads,
            )?;
            let chains = &mut self.chains;
            let report = static_resilience_report_with(
                geometry,
                *bits,
                grid,
                *pairs,
                *trials,
                spec.seed,
                self.threads,
                overlay.as_ref(),
                |family, h, q| chains.success_probability(family, h, q),
            )?;
            return Ok(ScenarioReport {
                schema: REPORT_SCHEMA.to_owned(),
                name: spec.name.clone(),
                family: spec.family().name().to_owned(),
                spec_hash: spec.content_hash_hex(),
                seed: spec.seed,
                payload: report.to_value(),
            });
        }
        Ok(run_spec(spec, Some(self.threads))?.report)
    }

    /// Handles one request line and returns the response line (no trailing
    /// newline).
    ///
    /// Malformed and unknown requests get a structured error envelope: the
    /// client's `id` is echoed whenever the line is valid JSON carrying a
    /// non-negative integer `id` field — even if the request body itself is
    /// unparsable — so pipelined clients can correlate the failure. Only
    /// lines that are not JSON at all (or carry no usable id) fall back to
    /// `id: 0`.
    pub fn handle_line(&mut self, line: &str) -> String {
        self.stats.requests += 1;
        let envelope: RequestEnvelope = match serde_json::from_str(line) {
            Ok(envelope) => envelope,
            Err(err) => {
                self.stats.errors += 1;
                return error_response(salvage_request_id(line), &format!("bad request: {err}"));
            }
        };
        let id = envelope.id;
        let body = match envelope.request {
            Request::Report { spec } => self.report_json(&spec),
            Request::Query { query } => self.report_json(&query.to_spec()),
            Request::Hash { spec } => spec
                .validate()
                .map(|()| format!("{{\"spec_hash\":\"{}\"}}", spec.content_hash_hex())),
            Request::Stats => {
                serde_json::to_string(&self.stats()).map_err(|err| SpecError::Io(err.to_string()))
            }
            Request::Shutdown => {
                self.shutdown = true;
                Ok("{\"shutdown\":true}".to_owned())
            }
        };
        match body {
            Ok(payload) => format!("{{\"id\":{id},\"ok\":{payload}}}"),
            Err(err) => {
                self.stats.errors += 1;
                error_response(id, &err.to_string())
            }
        }
    }

    /// Serves line-delimited requests from `reader` to `writer` until EOF
    /// or an acknowledged [`Request::Shutdown`]. Empty lines are ignored.
    ///
    /// A line longer than 1 MiB is answered with an `id: 0` error envelope
    /// naming the cap; the rest of it is skipped unbuffered, and serving
    /// continues with the next line. A line that is not UTF-8 is answered
    /// with an `id: 0` error envelope too, and serving continues.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error from either side.
    pub fn serve<R: BufRead, W: Write>(&mut self, mut reader: R, mut writer: W) -> io::Result<()> {
        if self.shutdown {
            return Ok(());
        }
        let mut line = Vec::new();
        while read_bounded_line(&mut reader, &mut line)? > 0 {
            let response = if line.len() > MAX_REQUEST_LINE_BYTES && !line.ends_with(b"\n") {
                // Skip the rest of the line one bounded chunk at a time.
                while read_bounded_line(&mut reader, &mut line)? > 0 && !line.ends_with(b"\n") {}
                self.stats.requests += 1;
                self.stats.errors += 1;
                let message = format!("request line longer than {MAX_REQUEST_LINE_BYTES} bytes");
                error_response(0, &message)
            } else if let Ok(text) = std::str::from_utf8(&line) {
                if text.trim().is_empty() {
                    continue;
                }
                self.handle_line(text.trim_end_matches('\n').trim_end_matches('\r'))
            } else {
                self.stats.requests += 1;
                self.stats.errors += 1;
                error_response(0, "request line is not UTF-8")
            };
            writeln!(writer, "{response}")?;
            writer.flush()?;
            if self.shutdown {
                break;
            }
        }
        Ok(())
    }

    /// Binds `addr` and serves connections sequentially, sharing the caches
    /// across all of them. Accepts until a connection sends
    /// [`Request::Shutdown`] (the acknowledgement is written back first),
    /// then returns cleanly.
    ///
    /// # Errors
    ///
    /// Returns the bind error; per-connection errors are logged to stderr
    /// and the server keeps accepting.
    pub fn serve_tcp(&mut self, addr: &str) -> io::Result<()> {
        let listener = TcpListener::bind(addr)?;
        eprintln!("scenario server listening on {}", listener.local_addr()?);
        self.serve_listener(&listener)
    }

    /// [`ReportServer::serve_tcp`] over an already-bound listener — the
    /// testable seam: callers that bind port 0 themselves know the actual
    /// address, which `serve_tcp` only reports on stderr.
    ///
    /// # Errors
    ///
    /// Returns the first accept error; per-connection errors are logged to
    /// stderr and the server keeps accepting.
    pub fn serve_listener(&mut self, listener: &TcpListener) -> io::Result<()> {
        for stream in listener.incoming() {
            match stream.and_then(|stream| {
                let reader = BufReader::new(stream.try_clone()?);
                self.serve(reader, stream)
            }) {
                Ok(()) => {}
                Err(err) => eprintln!("connection error: {err}"),
            }
            if self.shutdown {
                eprintln!("scenario server shutting down on request");
                break;
            }
        }
        Ok(())
    }
}

/// Longest request line [`ReportServer::serve`] buffers, newline excluded.
/// The largest committed spec is under 1 KiB, so 1 MiB only stops a client
/// that never sends a newline from growing the server without bound.
const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// Reads one line into `line` (cleared first), newline included, but stops
/// after `MAX_REQUEST_LINE_BYTES + 1` bytes. Returns the bytes read; 0 at
/// EOF.
fn read_bounded_line<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> io::Result<usize> {
    line.clear();
    let cap = MAX_REQUEST_LINE_BYTES as u64 + 1;
    reader.by_ref().take(cap).read_until(b'\n', line)
}

/// Pulls a non-negative integer `id` out of an otherwise unparsable request
/// line, so the error envelope still correlates. `0` when the line is not a
/// JSON object or carries no usable id.
fn salvage_request_id(line: &str) -> u64 {
    serde_json::from_str::<Value>(line)
        .ok()
        .and_then(|value| match value.get("id") {
            Some(Value::U64(id)) => Some(*id),
            _ => None,
        })
        .unwrap_or(0)
}

fn error_response(id: u64, message: &str) -> String {
    let escaped =
        serde_json::to_string(&message.to_owned()).unwrap_or_else(|_| "\"error\"".to_owned());
    format!("{{\"id\":{id},\"err\":{escaped}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_line(id: u64, spec: &ScenarioSpec) -> String {
        serde_json::to_string(&RequestEnvelope {
            id,
            request: Request::Report { spec: spec.clone() },
        })
        .unwrap()
    }

    #[test]
    fn malformed_lines_get_an_error_envelope() {
        let mut server = ReportServer::new(1);
        let response = server.handle_line("not json");
        assert!(response.starts_with("{\"id\":0,\"err\":"));
        assert_eq!(server.stats().errors, 1);
    }

    #[test]
    fn deeply_nested_lines_get_an_error_envelope_and_the_server_survives() {
        let mut server = ReportServer::new(1);
        let response = server.handle_line(&"[".repeat(100_000));
        assert!(response.starts_with("{\"id\":0,\"err\":"), "{response}");
        assert!(response.contains("deeper than 128"), "{response}");
        let stats = server.handle_line("{\"id\":2,\"request\":\"Stats\"}");
        assert!(stats.starts_with("{\"id\":2,\"ok\":"), "{stats}");
        assert_eq!(server.stats().errors, 1);
    }

    #[test]
    fn over_long_lines_are_refused_and_skipped_without_ending_the_session() {
        let mut server = ReportServer::new(1);
        // An over-long line, then a line that is not UTF-8, then a request.
        let mut input = "x".repeat(MAX_REQUEST_LINE_BYTES + 1).into_bytes();
        input.extend_from_slice(b"\n{\"id\":3,\xFF\xFE}\n{\"id\":2,\"request\":\"Stats\"}\n");
        let mut output = Vec::new();
        server.serve(input.as_slice(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].starts_with("{\"id\":0,\"err\":"), "{}", lines[0]);
        assert!(lines[0].contains(&MAX_REQUEST_LINE_BYTES.to_string()));
        assert!(lines[1].starts_with("{\"id\":0,\"err\":"), "{}", lines[1]);
        assert!(lines[1].contains("not UTF-8"), "{}", lines[1]);
        assert!(lines[2].starts_with("{\"id\":2,\"ok\":"), "{}", lines[2]);
        assert_eq!(server.stats().requests, 3);
        assert_eq!(server.stats().errors, 2);
    }

    #[test]
    fn out_of_range_parameters_get_an_error_envelope_and_the_server_survives() {
        let experiments = [
            r#"{"Fig3":{"failure_probability":1.5,"trials":10}}"#,
            r#"{"PercolationContrast":{"bits":6,"failure_probability":-0.1,"roots":4}}"#,
            r#"{"ImplicitScale":{"geometry":"ring","bits_list":[8],"failure_probability":1.5,"pairs":10}}"#,
            r#"{"PercolationContrast":{"bits":6,"failure_probability":0.1,"roots":0}}"#,
            r#"{"LiveChurn":{"bits":40,"session_times":[2.0],"lookup_rates":[10.0],"mean_downtime":0.5,"duration":2.0,"warmup":1.0,"replicas":1}}"#,
        ];
        let mut server = ReportServer::new(1);
        for (id, experiment) in (1..).zip(experiments) {
            let line = format!(
                r#"{{"id":{id},"request":{{"Report":{{"spec":{{"schema":"dht-scenario/v1","name":"bad","seed":1,"experiment":{experiment},"execution":null}}}}}}}}"#
            );
            let response = server.handle_line(&line);
            assert!(
                response.starts_with(&format!("{{\"id\":{id},\"err\":")),
                "{response}"
            );
        }
        let stats = server.handle_line("{\"id\":9,\"request\":\"Stats\"}");
        assert!(stats.starts_with("{\"id\":9,\"ok\":"), "{stats}");
        assert_eq!(server.stats().errors, 5);
    }

    #[test]
    fn malformed_bodies_still_echo_the_request_id() {
        let mut server = ReportServer::new(1);
        let response = server.handle_line("{\"id\":41,\"request\":{\"NoSuchThing\":{}}}");
        assert!(
            response.starts_with("{\"id\":41,\"err\":"),
            "unknown request kinds keep their id: {response}"
        );
        let response = server.handle_line("{\"id\":42}");
        assert!(
            response.starts_with("{\"id\":42,\"err\":"),
            "missing bodies keep their id: {response}"
        );
        let response = server.handle_line("{\"id\":-7,\"request\":\"Stats\"}");
        assert!(
            response.starts_with("{\"id\":0,\"err\":"),
            "unusable ids fall back to 0: {response}"
        );
        assert_eq!(server.stats().errors, 3);
    }

    #[test]
    fn shutdown_is_acknowledged_and_ends_the_serve_loop() {
        let mut server = ReportServer::new(1);
        let shutdown = serde_json::to_string(&RequestEnvelope {
            id: 5,
            request: Request::Shutdown,
        })
        .unwrap();
        let stats = serde_json::to_string(&RequestEnvelope {
            id: 6,
            request: Request::Stats,
        })
        .unwrap();
        // The stats line after the shutdown must never be answered.
        let input = format!("{shutdown}\n{stats}\n");
        let mut output = Vec::new();
        server.serve(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert_eq!(text, "{\"id\":5,\"ok\":{\"shutdown\":true}}\n");
        assert!(server.shutdown_requested());
        // A shut-down server stays shut down.
        let mut output = Vec::new();
        server.serve(stats.as_bytes(), &mut output).unwrap();
        assert!(output.is_empty());
    }

    #[test]
    fn invalid_specs_are_rejected_and_not_cached() {
        let mut server = ReportServer::new(1);
        let mut spec = ScenarioSpec::static_resilience("ring", 6, 0.2, 100, 1, 1);
        spec.schema = "dht-scenario/v9".to_owned();
        let response = server.handle_line(&report_line(1, &spec));
        assert!(response.contains("\"err\""));
        assert_eq!(server.stats().report_misses, 0);
    }

    #[test]
    fn hash_requests_answer_without_running_anything() {
        let mut server = ReportServer::new(1);
        let spec = ScenarioSpec::static_resilience("ring", 12, 0.3, 1_000_000, 64, 1);
        let line = serde_json::to_string(&RequestEnvelope {
            id: 9,
            request: Request::Hash { spec: spec.clone() },
        })
        .unwrap();
        let response = server.handle_line(&line);
        assert_eq!(
            response,
            format!(
                "{{\"id\":9,\"ok\":{{\"spec_hash\":\"{}\"}}}}",
                spec.content_hash_hex()
            )
        );
        assert_eq!(server.stats().trial_runs, 0);
    }

    #[test]
    fn implicit_queries_share_the_materialized_memo() {
        let mut server = ReportServer::new(1);
        let query = Query {
            geometry: "xor".to_owned(),
            bits: 8,
            failure_probability: 0.2,
            pairs: Some(400),
            trials: Some(1),
            seed: Some(7),
            backend: None,
        };
        let materialized = server.report_json(&query.to_spec()).unwrap();
        // The implicit twin desugars to the same content hash, so it is
        // answered verbatim from the memo without running anything.
        let implicit = Query {
            backend: Some(Backend::Implicit),
            ..query
        };
        assert_eq!(implicit.to_spec().backend(), Backend::Implicit);
        let answer = server.report_json(&implicit.to_spec()).unwrap();
        assert_eq!(answer, materialized);
        let stats = server.stats();
        assert_eq!(stats.report_hits, 1);
        assert_eq!(stats.trial_runs, 1);
        assert_eq!(stats.overlay_builds, 1);
    }

    #[test]
    fn implicit_backend_runs_answer_byte_identically() {
        // Force the run (fresh server per backend) rather than the memo:
        // the executed reports themselves must match byte for byte.
        let query = Query {
            geometry: "ring".to_owned(),
            bits: 8,
            failure_probability: 0.25,
            pairs: Some(400),
            trials: Some(1),
            seed: Some(7),
            backend: None,
        };
        let materialized = ReportServer::new(2).report_json(&query.to_spec()).unwrap();
        let implicit_query = Query {
            backend: Some(Backend::Implicit),
            ..query
        };
        let mut implicit_server = ReportServer::new(2);
        let implicit = implicit_server
            .report_json(&implicit_query.to_spec())
            .unwrap();
        assert_eq!(materialized, implicit);
        assert_eq!(implicit_server.stats().kernel_compiles, 0);
    }

    #[test]
    fn serve_answers_over_buffered_io() {
        let mut server = ReportServer::new(1);
        let spec = ScenarioSpec::static_resilience("hypercube", 6, 0.1, 200, 1, 4);
        let input = format!("{}\n\n{}\n", report_line(1, &spec), report_line(2, &spec));
        let mut output = Vec::new();
        server.serve(input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "blank lines are skipped");
        assert!(lines[0].starts_with("{\"id\":1,\"ok\":"));
        assert!(lines[1].starts_with("{\"id\":2,\"ok\":"));
        assert_eq!(lines[0][9..], lines[1][9..], "payloads are identical");
    }
}
