//! The scenario front door: batch-run a directory of spec files (or one
//! spec file), serve reports over stdin or TCP, hash specs without running
//! them, or write every family's default spec.
//!
//! ```text
//! scenario run <spec-dir | spec-file> [--out DIR] [--threads N] [--backend B] [--pretty]
//! scenario serve [--tcp ADDR] [--threads N]
//! scenario hash <spec-file>...
//! scenario init <dir> [--paper]
//! ```
//!
//! `run` prints each manifest row followed by its spec's headline and
//! table. `--backend materialized|implicit` overrides every spec's
//! routing-table backend; reports are byte-identical either way.

use dht_experiments::output::ReportMode;
use dht_experiments::spec::{Backend, ScenarioSpec, FAMILIES};
use dht_scenario::{run_batch, BatchOptions, ReportServer};
use std::io::BufReader;
use std::path::PathBuf;

const USAGE: &str =
    "usage: scenario run <spec-dir | spec-file> [--out DIR] [--threads N] [--backend B] [--pretty]
       scenario serve [--tcp ADDR] [--threads N]
       scenario hash <spec-file>...
       scenario init <dir> [--paper]";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("hash") => hash(&args[1..]),
        Some("init") => init(&args[1..]),
        _ => Err(usage_error("missing or unknown subcommand".to_owned())),
    }
}

/// An argument error: prints the usage text and returns `message`.
fn usage_error(message: String) -> Box<dyn std::error::Error> {
    eprintln!("{USAGE}");
    message.into()
}

/// Records the one positional path of a command; a flag-like argument or a
/// second path is a usage error.
fn set_path(
    slot: &mut Option<PathBuf>,
    command: &str,
    arg: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    if arg.starts_with('-') {
        return Err(usage_error(format!("unknown {command} argument {arg:?}")));
    }
    if slot.replace(PathBuf::from(arg)).is_some() {
        return Err(usage_error(format!(
            "scenario {command} takes one path, got a second: {arg:?}"
        )));
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut spec_path: Option<PathBuf> = None;
    let mut options = BatchOptions::new("results/scenarios");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => {
                options.output_dir = PathBuf::from(iter.next().ok_or("--out needs a directory")?);
            }
            "--threads" => {
                options.threads = Some(iter.next().ok_or("--threads needs a count")?.parse()?);
            }
            "--backend" => {
                options.backend = Some(
                    match iter.next().ok_or("--backend needs a name")?.as_str() {
                        "materialized" => Backend::Materialized,
                        "implicit" => Backend::Implicit,
                        other => {
                            return Err(format!(
                                "unknown backend {other:?} (expected materialized or implicit)"
                            )
                            .into())
                        }
                    },
                );
            }
            "--pretty" => options.mode = ReportMode::Pretty,
            other => set_path(&mut spec_path, "run", other)?,
        }
    }
    let spec_path = spec_path
        .ok_or_else(|| usage_error("scenario run needs a spec directory or file".into()))?;
    let manifest = run_batch(&spec_path, &options, |entry, outcome| {
        match &entry.error {
            None => println!(
                "{:<28} {:<22} {}  -> {}",
                entry.file, entry.family, entry.spec_hash, entry.report
            ),
            Some(error) => println!("{:<28} FAILED: {error}", entry.file),
        }
        if let Some(outcome) = outcome {
            println!("{}\n{}", outcome.headline, outcome.table);
        }
    })?;
    let failed = manifest
        .iter()
        .filter(|entry| entry.error.is_some())
        .count();
    println!(
        "ran {} spec(s) from {} into {}",
        manifest.len() - failed,
        spec_path.display(),
        options.output_dir.display()
    );
    if failed > 0 {
        return Err(format!("{failed} spec file(s) failed; see the manifest").into());
    }
    Ok(())
}

fn serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut tcp: Option<String> = None;
    let mut threads = 1;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--tcp" => tcp = Some(iter.next().ok_or("--tcp needs an address")?.clone()),
            "--threads" => threads = iter.next().ok_or("--threads needs a count")?.parse()?,
            other => return Err(usage_error(format!("unknown serve argument {other:?}"))),
        }
    }
    let mut server = ReportServer::new(threads);
    match tcp {
        Some(addr) => server.serve_tcp(&addr)?,
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            server.serve(BufReader::new(stdin.lock()), stdout.lock())?;
        }
    }
    Ok(())
}

fn init(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut dir: Option<PathBuf> = None;
    let mut paper = false;
    for arg in args {
        match arg.as_str() {
            "--paper" => paper = true,
            other => set_path(&mut dir, "init", other)?,
        }
    }
    let dir = dir.ok_or_else(|| usage_error("scenario init needs a target directory".into()))?;
    std::fs::create_dir_all(&dir)?;
    for family in FAMILIES {
        let spec = family.default_spec(!paper);
        let path = dir.join(format!("{}.json", spec.name));
        std::fs::write(&path, spec.to_json_pretty())?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn hash(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    if args.is_empty() {
        return Err("scenario hash needs at least one spec file".into());
    }
    for path in args {
        let text = std::fs::read_to_string(path)?;
        let spec = ScenarioSpec::from_json(&text)?;
        println!("{}  {path}", spec.content_hash_hex());
    }
    Ok(())
}
