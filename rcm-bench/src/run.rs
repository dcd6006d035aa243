//! Untraced runs: set-up, the timed window, output checks and the
//! end-to-end metrics.

use crate::checks::{
    check_digest, check_report, committed_digests, fnv1a64_hex, DIGEST_REQUESTS, DIGEST_SEED,
};
use crate::front::{batch_pass, ok_payload, prepare, request_line, BatchPass, ServerSession};
use crate::metrics::{peak_rss_mib, ratio, Outcome};
use crate::stats::{median, percentile, Summary};
use crate::workload::{batch_specs, QueryMix, Scale, Workload, THREADS};
use dht_experiments::spec::run_spec;
use dht_scenario::{Query, Request, ServerStats};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Fewest set-ups per run; `setup_s` is their median.
const SETUP_MIN_REPEATS: usize = 5;
/// Set-ups repeat until they have taken this long in total, so that the
/// median of a set-up under a millisecond rests on hundreds of samples.
const SETUP_MIN_TOTAL_S: f64 = 0.5;

fn another_setup(setup_s: &[f64]) -> bool {
    setup_s.len() < SETUP_MIN_REPEATS || setup_s.iter().sum::<f64>() < SETUP_MIN_TOTAL_S
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory for spec files and reports (removed by the caller).
    pub work_dir: PathBuf,
}

impl RunOptions {
    /// Whether the outputs of this run are covered by the committed digests.
    pub(crate) fn digests_apply(&self) -> bool {
        self.seed == DIGEST_SEED && self.scale == Scale::Full
    }
}

/// Whether another pass fits: the window has at least half a typical pass
/// left, so a run overshoots `seconds` by at most about half a pass.
fn another_pass_fits(window: Instant, seconds: f64, pass_times: &[f64]) -> bool {
    window.elapsed().as_secs_f64() + median(pass_times) / 2.0 < seconds
}

fn note_summary(outcome: &mut Outcome, name: &str, unit: &str, values: &[f64]) {
    let s = Summary::of(values);
    outcome.notes.push(format!(
        "{name:<16} n={:<4} median={:.6} p25={:.6} p75={:.6} min={:.6} max={:.6} {unit}",
        s.n, s.median, s.p25, s.p75, s.min, s.max
    ));
}

/// Records the end-to-end metrics, and the distributions behind them as
/// notes. `walls[i]` is the time of timed pass (block) `i` and
/// `latencies_ms[i]` the latencies of its queries. Every timing is a median
/// over the passes of the run.
fn end_to_end(
    outcome: &mut Outcome,
    setup_s: &[f64],
    walls: &[f64],
    latencies_ms: &[Vec<f64>],
    peak_mib: f64,
) {
    let rates: Vec<f64> = walls
        .iter()
        .zip(latencies_ms)
        .map(|(wall, queries)| ratio(queries.len() as f64, *wall))
        .collect();
    let per_pass = |p: f64| -> Vec<f64> {
        latencies_ms
            .iter()
            .map(|queries| percentile(queries, p))
            .collect()
    };
    let (p50, p99) = (per_pass(0.5), per_pass(0.99));
    note_summary(outcome, "setup_s", "s", setup_s);
    note_summary(outcome, "wall_s", "s", walls);
    note_summary(outcome, "query_ms", "ms", &latencies_ms.concat());
    note_summary(outcome, "pass_p50_ms", "ms", &p50);
    note_summary(outcome, "pass_p99_ms", "ms", &p99);
    outcome.metrics.insert("setup_s", median(setup_s));
    outcome.metrics.insert("wall_s", median(walls));
    outcome.metrics.insert("queries_per_s", median(&rates));
    outcome.metrics.insert("query_p50_ms", median(&p50));
    outcome.metrics.insert("query_p99_ms", median(&p99));
    outcome.metrics.insert("peak_rss_mib", peak_mib);
}

/// Runs one workload untraced and reports its end-to-end metrics.
///
/// # Errors
///
/// Returns a message when the run cannot proceed at all (I/O on the work
/// directory, a server that cannot start); failed requests and checks are
/// counted in the outcome instead.
pub fn untraced(options: &RunOptions) -> Result<Outcome, String> {
    match options.workload {
        Workload::QueryMix => queries(options),
        _ => batch(options),
    }
}

fn batch(options: &RunOptions) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let specs = batch_specs(options.workload, options.seed, options.scale);

    // Set-up: writing the spec files the batch runner reads.
    let mut setup_s = Vec::new();
    let mut prepared = Vec::new();
    while another_setup(&setup_s) {
        let start = Instant::now();
        prepared = prepare(&options.work_dir.join("batch"), &specs)
            .map_err(|err| format!("preparing specs: {err}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
    }

    let window = Instant::now();
    let mut passes: Vec<BatchPass> = Vec::new();
    let mut walls = Vec::new();
    let mut peak_mib = 0.0;
    loop {
        let pass = batch_pass(&prepared, THREADS);
        if passes.is_empty() {
            // A user runs a spec directory once per process. Later passes
            // would add what the allocator kept from earlier ones.
            peak_mib = peak_rss_mib();
        }
        walls.push(pass.wall_s);
        passes.push(pass);
        if !another_pass_fits(window, options.seconds, &walls) {
            break;
        }
    }

    let digests = committed_digests();
    let first = &passes[0];
    for (index, spec) in specs.iter().enumerate() {
        let key = format!("{}/{}", options.workload.name(), spec.name);
        let bytes = &first.reports[index];
        outcome
            .notes
            .push(format!("digest {key} {}", fnv1a64_hex(bytes)));
        if let Err(message) = check_report(spec, bytes) {
            outcome.fail(message);
        }
        if options.digests_apply() {
            if let Err(message) = check_digest(&digests, &key, bytes) {
                outcome.fail(message);
            }
        }
        for (number, pass) in passes.iter().enumerate().skip(1) {
            if pass.reports[index] != *bytes {
                outcome.fail(format!("{key}: pass {number} differs from pass 0"));
            }
        }
    }
    let mut latencies_ms = Vec::new();
    for pass in &passes {
        outcome.attempted += pass.latencies_s.len() as u64;
        latencies_ms.push(pass.latencies_s.iter().map(|s| s * 1e3).collect());
        for error in &pass.errors {
            outcome.fail(error.clone());
        }
    }
    outcome.notes.push(format!("passes_s {walls:.4?}"));
    outcome.notes.push(format!(
        "peak_rss_mib after all passes {:.2}",
        peak_rss_mib()
    ));
    end_to_end(&mut outcome, &setup_s, &walls, &latencies_ms, peak_mib);
    Ok(outcome)
}

/// Requests per timed block of `query_mix`; `wall_s` is the median block.
fn block_size(scale: Scale) -> usize {
    match scale {
        Scale::Full => 50,
        Scale::Tiny => 10,
    }
}

/// One answered query of the timed window.
struct Answered {
    query: Query,
    latency_ms: f64,
    line: String,
}

/// Starts a server, connects and sends the set-up queries.
fn server_setup(mix: &QueryMix, outcome: &mut Outcome) -> Result<(ServerSession, u64), String> {
    let mut session =
        ServerSession::start(THREADS).map_err(|err| format!("starting the server: {err}"))?;
    let mut id = 1;
    for query in mix.warm() {
        let line = request_line(id, Request::Query { query });
        id += 1;
        let (_, response) = session
            .exchange(&line)
            .map_err(|err| format!("set-up query: {err}"))?;
        if ok_payload(&response).is_none() {
            outcome.fail(format!("set-up query failed: {response}"));
        }
    }
    Ok((session, id))
}

fn queries(options: &RunOptions) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut mix = QueryMix::new(options.seed, options.scale);

    let mut setup_s = Vec::new();
    let mut current = None;
    while another_setup(&setup_s) {
        if let Some((previous, _)) = current.take() {
            ServerSession::shutdown(previous)
                .map_err(|err| format!("stopping a set-up server: {err}"))?;
        }
        let start = Instant::now();
        current = Some(server_setup(&mix, &mut outcome)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (mut session, mut id) = current.expect("at least one set-up");

    let block = block_size(options.scale);
    let window = Instant::now();
    let mut answered: Vec<Answered> = Vec::new();
    let mut walls = Vec::new();
    loop {
        let start = Instant::now();
        for _ in 0..block {
            let query = mix.next_query();
            let line = request_line(
                id,
                Request::Query {
                    query: query.clone(),
                },
            );
            id += 1;
            let (latency_s, line) = session
                .exchange(&line)
                .map_err(|err| format!("query: {err}"))?;
            answered.push(Answered {
                query,
                latency_ms: latency_s * 1e3,
                line,
            });
        }
        walls.push(start.elapsed().as_secs_f64());
        if !another_pass_fits(window, options.seconds, &walls) {
            break;
        }
    }
    outcome.attempted = answered.len() as u64;
    let (_, stats) = session
        .exchange(&request_line(id, Request::Stats))
        .map_err(|err| format!("stats: {err}"))?;
    session
        .shutdown()
        .map_err(|err| format!("stopping the server: {err}"))?;
    // Read before the checks below, so their own runs do not add to the
    // server's peak memory.
    let peak_mib = peak_rss_mib();

    // Untimed checks. Every response succeeds; a repeated key is answered
    // byte for byte as the first time; the first and last computed answers
    // equal an uncached `run_spec` of the same query.
    match ok_payload(&stats).map(serde_json::from_str::<ServerStats>) {
        Some(Ok(stats)) if stats.errors == 0 => {}
        other => outcome.fail(format!("server stats report errors: {other:?}")),
    }
    let mut first_answer: HashMap<u64, (usize, &str)> = HashMap::new();
    for (index, answer) in answered.iter().enumerate() {
        let Some(payload) = ok_payload(&answer.line) else {
            outcome.fail(format!("query {index} failed: {}", answer.line));
            continue;
        };
        let key = answer.query.to_spec().content_hash();
        match first_answer.get(&key) {
            Some(&(_, first)) if first != payload => {
                outcome.fail(format!("query {index}: memoized answer differs"));
            }
            Some(_) => {}
            None => {
                first_answer.insert(key, (index, payload));
            }
        }
    }
    let mut computed: Vec<(usize, &str)> = first_answer.into_values().collect();
    computed.sort_unstable();
    for &(index, payload) in computed
        .iter()
        .take(1)
        .chain(computed.iter().skip(1).last())
    {
        let spec = answered[index].query.to_spec();
        match run_spec(&spec, Some(THREADS)).map(|run| serde_json::to_string(&run.report)) {
            Ok(Ok(direct)) if direct == payload => {}
            _ => outcome.fail(format!("query {index}: answer differs from run_spec")),
        }
    }
    let digest_lines: Vec<&str> = answered
        .iter()
        .take(DIGEST_REQUESTS)
        .map(|answer| answer.line.as_str())
        .collect();
    let digest_bytes = digest_lines.join("\n");
    outcome.notes.push(format!(
        "digest query_mix/responses {}",
        fnv1a64_hex(digest_bytes.as_bytes())
    ));
    if options.digests_apply() {
        if digest_lines.len() < DIGEST_REQUESTS {
            outcome.fail(format!(
                "only {} requests answered, the digest covers {DIGEST_REQUESTS}",
                digest_lines.len()
            ));
        } else if let Err(message) = check_digest(
            &committed_digests(),
            "query_mix/responses",
            digest_bytes.as_bytes(),
        ) {
            outcome.fail(message);
        }
    }

    // Every block is complete, so block `i` is chunk `i`.
    let latencies_ms: Vec<Vec<f64>> = answered
        .chunks(block)
        .map(|chunk| chunk.iter().map(|a| a.latency_ms).collect())
        .collect();
    outcome.notes.push(format!("blocks_s {walls:.4?}"));
    end_to_end(&mut outcome, &setup_s, &walls, &latencies_ms, peak_mib);
    Ok(outcome)
}
