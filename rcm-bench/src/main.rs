//! `rcm-bench`: the end-to-end benchmark's command line.
//!
//! ```text
//! rcm-bench run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//! rcm-bench all [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//! rcm-bench compare <A-runs> <B-runs> [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` prints a summary and, as its last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`; it exits 1 when an
//! output check failed and 2 when the run could not proceed. `--record`
//! appends the result, tagged with workload, seed and mode, to a JSON-lines
//! file that `compare` reads.

use rcm_bench::compare;
use rcm_bench::metrics::{END_TO_END, PER_LAYER};
use rcm_bench::run::RunOptions;
use rcm_bench::workload::{Scale, Workload};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: rcm-bench run --workload <paper_batch|query_mix|implicit_scale|faults_churn> \
[--seed N] [--seconds S] [--trace 0|1] [--record FILE]
       rcm-bench all [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
       rcm-bench compare <A-runs> <B-runs> [--benchmark BENCHMARK.json]";

/// The default input seed.
const DEFAULT_SEED: u64 = 2006;
/// The default timed window, seconds (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        record: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes an unsigned integer, got {value}"))?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds takes a positive number, got {value}"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                };
            }
            "--record" => parsed.record = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

/// `$CARGO_TARGET_DIR`, or `target` under the working directory.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

fn run(args: &[String]) -> ExitCode {
    let parsed = match parse_run_args(args) {
        Ok(parsed) => parsed,
        Err(message) => return usage_error(&message),
    };
    let Some(workload) = parsed.workload else {
        return usage_error("run needs --workload");
    };
    let target = target_dir();
    let options = RunOptions {
        workload,
        seed: parsed.seed,
        seconds: parsed.seconds,
        scale: Scale::Full,
        work_dir: target.join("rcm-bench").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    };
    let outcome = match rcm_bench::execute(&options, parsed.trace, &target.join("bench-trace")) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("rcm-bench: {}: {message}", workload.name());
            return ExitCode::from(2);
        }
    };
    let table: &[(&str, &str)] = if parsed.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    println!(
        "workload {} seed {} trace {}",
        workload.name(),
        parsed.seed,
        u8::from(parsed.trace)
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, unit) in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<34} {value:>16.6} {unit}");
    }
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }
    let line = outcome.result_line(table);
    if let Some(record) = &parsed.record {
        let tagged = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
            workload.name(),
            parsed.seed,
            u8::from(parsed.trace)
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(record)
            .and_then(|mut file| file.write_all(tagged.as_bytes()));
        if let Err(err) = appended {
            eprintln!("rcm-bench: recording to {}: {err}", record.display());
        }
    }
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a process of its own so peak memory is per
/// workload.
fn all(args: &[String]) -> ExitCode {
    let parsed = match parse_run_args(args) {
        Ok(parsed) => parsed,
        Err(message) => return usage_error(&message),
    };
    if parsed.workload.is_some() {
        return usage_error("all runs every workload; drop --workload");
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("rcm-bench: locating this executable: {err}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let mut command = Command::new(&exe);
        command
            .args(["run", "--workload", workload.name()])
            .args(["--seed", &parsed.seed.to_string()])
            .args(["--seconds", &parsed.seconds.to_string()])
            .args(["--trace", if parsed.trace { "1" } else { "0" }]);
        if let Some(record) = &parsed.record {
            command.arg("--record").arg(record);
        }
        match command.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("rcm-bench: {} exited with {status}", workload.name());
                ok = false;
            }
            Err(err) => {
                eprintln!("rcm-bench: starting {}: {err}", workload.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_runs(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--benchmark" {
            match iter.next() {
                Some(path) => benchmark = PathBuf::from(path),
                None => return usage_error("--benchmark needs a path"),
            }
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    let [a, b] = files.as_slice() else {
        return usage_error("compare takes two run files");
    };
    let read = |path: &PathBuf| {
        std::fs::read_to_string(path).map_err(|err| format!("reading {}: {err}", path.display()))
    };
    let loaded = read(&benchmark)
        .and_then(|text| compare::bounds(&text))
        .and_then(|bounds| {
            let a = compare::records(&read(a)?)?;
            let b = compare::records(&read(b)?)?;
            Ok((bounds, a, b))
        });
    match loaded {
        Ok((bounds, a, b)) => {
            let (table, regressed) = compare::report(&bounds, &a, &b);
            print!("{table}");
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(message) => {
            eprintln!("rcm-bench: {message}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("rcm-bench: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("all") => all(&args[1..]),
        Some("compare") => compare_runs(&args[1..]),
        _ => usage_error("missing or unknown subcommand"),
    }
}
