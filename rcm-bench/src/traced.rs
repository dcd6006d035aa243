//! The traced run: the front doors untraced at two and at one engine
//! thread, then a traced composition of the same work at one thread,
//! checked byte for byte against the front doors; per-layer metrics.

use crate::checks::{check_digest, committed_digests, DIGEST_REQUESTS};
use crate::compose::{batch_report, ComposedServer};
use crate::front::{batch_pass, ok_payload, prepare, request_line, ServerSession};
use crate::metrics::{layer_metrics, ratio, Outcome, TracedExtras};
use crate::run::RunOptions;
use crate::stats::median;
use crate::trace::{coverage, write_spans, Tracer};
use crate::workload::{batch_specs, QueryMix, Scale, Workload, THREADS};
use dht_experiments::output::sanitize_stem;
use dht_experiments::spec::ScenarioSpec;
use dht_scenario::{ReportServer, Request, ServerStats};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

/// Runs one workload traced, writes its spans to `trace_file` and reports
/// the per-layer metrics.
///
/// # Errors
///
/// Returns a message when the run cannot proceed at all; mismatches
/// between the front doors and the composition are counted as failures.
pub fn traced(options: &RunOptions, trace_file: &Path) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let mut outcome = match options.workload {
        Workload::QueryMix => traced_queries(options, &tracer)?,
        _ => traced_batch(options, &tracer)?,
    };
    // The raw counters behind the ratios, such as per-size implicit hops.
    for (name, value) in tracer.counters() {
        outcome.notes.push(format!("counter {name:<30} {value}"));
    }
    write_spans(trace_file, &tracer.spans())
        .map_err(|err| format!("writing {}: {err}", trace_file.display()))?;
    Ok(outcome)
}

fn traced_batch(options: &RunOptions, tracer: &Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let specs = batch_specs(options.workload, options.seed, options.scale);
    let prepared = prepare(&options.work_dir.join("batch"), &specs)
        .map_err(|err| format!("preparing specs: {err}"))?;
    let two = batch_pass(&prepared, THREADS);
    let one = batch_pass(&prepared, 1);
    for error in two.errors.iter().chain(&one.errors) {
        outcome.fail(error.clone());
    }

    let out_dir = options.work_dir.join("traced");
    std::fs::create_dir_all(&out_dir)
        .map_err(|err| format!("creating {}: {err}", out_dir.display()))?;
    let start = tracer.now_ns();
    let mut composed = Vec::with_capacity(prepared.len());
    let mut report_s = Vec::with_capacity(prepared.len());
    for (request, spec) in (0u64..).zip(&prepared) {
        let began = Instant::now();
        let result = tracer.root(request).nest("scenario.report", |ctx| {
            let parsed = ctx.span("spec.parse", || {
                let text =
                    std::fs::read_to_string(&spec.spec_file).map_err(|err| err.to_string())?;
                ScenarioSpec::from_json(&text).map_err(|err| err.to_string())
            })?;
            let report = batch_report(ctx, &parsed)?;
            let json = ctx
                .span("spec.serialize", || serde_json::to_string(&report))
                .map_err(|err| err.to_string())?;
            let path = out_dir.join(format!("{}.json", sanitize_stem(&parsed.name)));
            ctx.span("scenario.write", || std::fs::write(path, &json))
                .map_err(|err| err.to_string())?;
            Ok::<_, String>(json.into_bytes())
        });
        report_s.push(began.elapsed().as_secs_f64());
        composed.push(result.unwrap_or_else(|message| {
            outcome.fail(format!("{}: traced composition: {message}", spec.name));
            Vec::new()
        }));
    }
    let end = tracer.now_ns();

    let digests = committed_digests();
    for (index, spec) in specs.iter().enumerate() {
        let key = format!("{}/{}", options.workload.name(), spec.name);
        if one.reports[index] != two.reports[index] {
            outcome.fail(format!(
                "{key}: 1-thread report differs from 2-thread report"
            ));
        }
        if composed[index] != one.reports[index] {
            outcome.fail(format!(
                "{key}: traced report differs from the front door's"
            ));
        }
        if options.digests_apply() {
            if let Err(message) = check_digest(&digests, &key, &two.reports[index]) {
                outcome.fail(message);
            }
        }
    }
    outcome.attempted = 3 * specs.len() as u64;
    let report_bytes: Vec<f64> = composed.iter().map(|bytes| bytes.len() as f64).collect();
    let extras = TracedExtras {
        wall_1_thread_s: one.wall_s,
        wall_2_threads_s: two.wall_s,
        traced_wall_s: (end - start) as f64 / 1e9,
        coverage: coverage(&tracer.spans(), start, end),
        report_bytes: report_bytes.iter().sum::<f64>() / report_bytes.len().max(1) as f64,
        miss_handle_s: median(&report_s),
        ..TracedExtras::default()
    };
    layer_metrics(tracer, &extras, &mut outcome.metrics);
    Ok(outcome)
}

/// Requests (after set-up) in the traced query session: the ones the
/// committed response digest covers.
fn trace_requests(scale: Scale) -> usize {
    match scale {
        Scale::Full => DIGEST_REQUESTS,
        Scale::Tiny => 30,
    }
}

/// Sends every line to a fresh front-door server; returns the time from
/// server start to the last response and the responses.
fn front_door(threads: usize, lines: &[String]) -> Result<(f64, Vec<String>), String> {
    let start = Instant::now();
    let mut session =
        ServerSession::start(threads).map_err(|err| format!("starting the server: {err}"))?;
    let mut responses = Vec::with_capacity(lines.len());
    for line in lines {
        let (_, response) = session
            .exchange(line)
            .map_err(|err| format!("query: {err}"))?;
        responses.push(response);
    }
    let wall = start.elapsed().as_secs_f64();
    session
        .shutdown()
        .map_err(|err| format!("stopping the server: {err}"))?;
    Ok((wall, responses))
}

/// Reads from the connection until one request line has arrived, then
/// reports end of input, so `ReportServer::serve` returns after each
/// request and the caller can take its stats between requests.
struct OneLine<'a> {
    stream: &'a TcpStream,
    tracer: &'a Tracer,
    arrived_ns: Option<u64>,
}

impl Read for OneLine<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.arrived_ns.is_some() {
            return Ok(0);
        }
        let n = self.stream.read(buf)?;
        if buf[..n].contains(&b'\n') {
            self.arrived_ns = Some(self.tracer.now_ns());
        }
        Ok(n)
    }
}

/// Counts and timestamps the server's writes and flushes of one response.
struct TimedWrites<'a> {
    stream: &'a TcpStream,
    tracer: &'a Tracer,
    first_ns: Option<u64>,
    flushed_ns: u64,
    writes: u64,
}

impl Write for TimedWrites<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.first_ns.get_or_insert_with(|| self.tracer.now_ns());
        self.writes += 1;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()?;
        self.flushed_ns = self.tracer.now_ns();
        Ok(())
    }
}

/// One request as the traced server saw it.
struct Served {
    arrived_ns: u64,
    first_write_ns: u64,
    flushed_ns: u64,
    writes: u64,
    before: ServerStats,
    after: ServerStats,
}

/// `ReportServer::serve` driven one request at a time over a wrapped
/// `TcpStream`, on the single connection `listener` accepts.
fn serve_traced(listener: &TcpListener, tracer: &Tracer) -> io::Result<Vec<Served>> {
    let (stream, _) = listener.accept()?;
    let mut server = ReportServer::new(1);
    let mut served = Vec::new();
    loop {
        let mut reader = OneLine {
            stream: &stream,
            tracer,
            arrived_ns: None,
        };
        let mut writer = TimedWrites {
            stream: &stream,
            tracer,
            first_ns: None,
            flushed_ns: 0,
            writes: 0,
        };
        let before = server.stats();
        server.serve(BufReader::new(&mut reader), &mut writer)?;
        let Some(arrived_ns) = reader.arrived_ns else {
            break;
        };
        let first_write_ns = writer.first_ns.unwrap_or(arrived_ns);
        served.push(Served {
            arrived_ns,
            first_write_ns,
            flushed_ns: writer.flushed_ns.max(first_write_ns),
            writes: writer.writes,
            before,
            after: server.stats(),
        });
        if server.shutdown_requested() {
            break;
        }
    }
    Ok(served)
}

/// What the traced TCP session measured.
struct Edge {
    wall_s: f64,
    responses: Vec<String>,
    extras: TracedExtras,
}

/// One request as the traced client saw it.
struct Exchange {
    sent_ns: u64,
    received_ns: u64,
    response: String,
}

/// Sends every line over one connection to `addr`, closed loop, then asks
/// the server to shut down. Also returns the time from `start` to the last
/// response, seconds.
fn client_exchanges(
    addr: SocketAddr,
    lines: &[String],
    tracer: &Tracer,
    start: Instant,
) -> io::Result<(f64, Vec<Exchange>)> {
    let mut session = ServerSession::connect(addr)?;
    let mut exchanges = Vec::with_capacity(lines.len());
    for line in lines {
        let sent_ns = tracer.now_ns();
        let (_, response) = session.exchange(line)?;
        exchanges.push(Exchange {
            sent_ns,
            received_ns: tracer.now_ns(),
            response,
        });
    }
    let wall = start.elapsed().as_secs_f64();
    session.shutdown()?;
    Ok((wall, exchanges))
}

/// Runs `lines` through a one-thread server over loopback, timestamping
/// each request on both sides of the connection.
fn traced_edge(lines: &[String], tracer: &Tracer) -> Result<Edge, String> {
    let start = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|err| format!("bind: {err}"))?;
    let addr = listener
        .local_addr()
        .map_err(|err| format!("bind: {err}"))?;
    let (client, served) = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_traced(&listener, tracer));
        let client = client_exchanges(addr, lines, tracer, start);
        if client.is_err() {
            // Unblock a server still waiting to accept, so the scope ends.
            let _ = TcpStream::connect(addr);
        }
        (
            client,
            server.join().expect("traced server thread panicked"),
        )
    });
    let (wall_s, exchanges) = client.map_err(|err| format!("traced client: {err}"))?;
    let served = served.map_err(|err| format!("traced server: {err}"))?;
    if served.len() < exchanges.len() {
        return Err("the traced server answered fewer requests than were sent".to_owned());
    }

    let mut latency_ns = 0u64;
    let mut wait_ns = 0u64;
    let mut writes = 0u64;
    let mut memo_hits = 0u64;
    let mut overlay_hits = 0u64;
    let mut overlay_builds = 0u64;
    let mut miss_handle_s = Vec::new();
    let mut responses = Vec::with_capacity(exchanges.len());
    for ((request, exchange), served) in (1u64..).zip(exchanges).zip(&served) {
        let Exchange {
            sent_ns,
            received_ns,
            response,
        } = exchange;
        let parent = tracer.record("net.request", None, request, sent_ns, received_ns);
        tracer.record(
            "scenario.handle",
            Some(parent),
            request,
            served.arrived_ns,
            served.first_write_ns,
        );
        tracer.record(
            "scenario.write",
            Some(parent),
            request,
            served.first_write_ns,
            served.flushed_ns,
        );
        let latency = received_ns.saturating_sub(sent_ns);
        latency_ns += latency;
        wait_ns += latency.saturating_sub(served.flushed_ns.saturating_sub(served.arrived_ns));
        writes += served.writes;
        let (before, after) = (served.before, served.after);
        memo_hits += after.report_hits - before.report_hits;
        overlay_hits += after.overlay_hits - before.overlay_hits;
        overlay_builds += after.overlay_builds - before.overlay_builds;
        if after.report_misses > before.report_misses {
            miss_handle_s
                .push(served.first_write_ns.saturating_sub(served.arrived_ns) as f64 / 1e9);
        }
        responses.push(response);
    }
    let requests = responses.len() as f64;
    Ok(Edge {
        wall_s,
        extras: TracedExtras {
            miss_handle_s: median(&miss_handle_s),
            memo_hit_share: ratio(memo_hits as f64, requests),
            overlay_hit_share: ratio(overlay_hits as f64, (overlay_hits + overlay_builds) as f64),
            writes_per_response: ratio(writes as f64, requests),
            net_wait_share: ratio(wait_ns as f64, latency_ns as f64),
            report_bytes: responses.iter().map(|r| r.len() as f64).sum::<f64>() / requests.max(1.0),
            ..TracedExtras::default()
        },
        responses,
    })
}

fn traced_queries(options: &RunOptions, tracer: &Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut mix = QueryMix::new(options.seed, options.scale);
    let mut queries = mix.warm();
    let warm = queries.len();
    queries.extend((0..trace_requests(options.scale)).map(|_| mix.next_query()));
    let lines: Vec<String> = (1u64..)
        .zip(&queries)
        .map(|(id, query)| {
            request_line(
                id,
                Request::Query {
                    query: query.clone(),
                },
            )
        })
        .collect();

    let (wall_2, two) = front_door(THREADS, &lines)?;
    let (wall_1, one) = front_door(1, &lines)?;
    let start = tracer.now_ns();
    let edge = traced_edge(&lines, tracer)?;
    let mut server = ComposedServer::new();
    let composed: Vec<Result<String, String>> = (1u64..)
        .zip(&lines)
        .map(|(id, line)| {
            tracer.root(id).nest("scenario.request", |ctx| {
                server.handle_line(ctx, line.trim_end())
            })
        })
        .collect();
    let end = tracer.now_ns();

    for (index, reference) in one.iter().enumerate() {
        if ok_payload(reference).is_none() {
            outcome.fail(format!("query {index} failed: {reference}"));
        }
        if two[index] != *reference {
            outcome.fail(format!(
                "query {index}: 2-thread answer differs from 1-thread answer"
            ));
        }
        if edge.responses[index] != *reference {
            outcome.fail(format!("query {index}: traced server answer differs"));
        }
        match &composed[index] {
            Ok(answer) if answer == reference => {}
            Ok(_) => outcome.fail(format!("query {index}: traced composition differs")),
            Err(message) => outcome.fail(format!("query {index}: traced composition: {message}")),
        }
    }
    if options.digests_apply() {
        let stream = one[warm..].join("\n");
        if let Err(message) = check_digest(
            &committed_digests(),
            "query_mix/responses",
            stream.as_bytes(),
        ) {
            outcome.fail(message);
        }
    }
    outcome.attempted = 4 * lines.len() as u64;
    let extras = TracedExtras {
        wall_1_thread_s: wall_1,
        wall_2_threads_s: wall_2,
        traced_wall_s: edge.wall_s,
        coverage: coverage(&tracer.spans(), start, end),
        ..edge.extras
    };
    layer_metrics(tracer, &extras, &mut outcome.metrics);
    Ok(outcome)
}
