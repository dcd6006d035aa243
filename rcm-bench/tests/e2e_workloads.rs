//! Every workload end to end at a tiny scale: all metrics emitted, every
//! output check passing, and the traced rebuild byte-identical to the
//! front doors with its spans covering the traced wall time.

use rcm_bench::metrics::{END_TO_END, PER_LAYER};
use rcm_bench::run::RunOptions;
use rcm_bench::workload::{Scale, Workload};
use serde::Value;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("e2e-{tag}-{}", std::process::id()))
}

fn options(workload: Workload, tag: &str) -> RunOptions {
    RunOptions {
        workload,
        seed: 11,
        seconds: 0.2,
        scale: Scale::Tiny,
        work_dir: scratch(&format!("{}-{tag}", workload.name())),
    }
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric_and_pass_their_checks() {
    for workload in Workload::ALL {
        let options = options(workload, "untraced");
        let outcome = rcm_bench::execute(&options, false, &scratch("unused")).unwrap();
        assert!(
            outcome.correct(),
            "{}: {:?}",
            workload.name(),
            outcome.failures
        );
        assert!(outcome.attempted > 0);
        for (name, _) in END_TO_END {
            let value = outcome.metrics[name];
            assert!(
                value.is_finite() && value > 0.0,
                "{}: {name} = {value}",
                workload.name()
            );
        }
        assert!(!options.work_dir.exists(), "the work directory is removed");
    }
}

#[test]
fn traced_runs_match_the_front_doors_and_cover_the_traced_time() {
    let trace_dir = scratch("traces");
    for workload in Workload::ALL {
        let outcome = rcm_bench::execute(&options(workload, "traced"), true, &trace_dir).unwrap();
        // Failures here include any traced report that differs from the
        // front door's bytes, and 1-thread answers differing from 2-thread.
        assert!(
            outcome.correct(),
            "{}: {:?}",
            workload.name(),
            outcome.failures
        );
        for (name, _) in PER_LAYER {
            assert!(
                outcome.metrics[name].is_finite(),
                "{}: {name}",
                workload.name()
            );
        }
        let coverage = outcome.metrics["trace.coverage"];
        assert!(coverage >= 0.95, "{}: coverage {coverage}", workload.name());
        assert!(outcome.metrics["kernel.route_ms"] > 0.0);
        assert!(outcome.metrics["overlay.build_ms"] > 0.0);
        let spans =
            std::fs::read_to_string(trace_dir.join(format!("{}.json", workload.name()))).unwrap();
        let Ok(Value::Array(spans)) = serde_json::from_str::<Value>(&spans) else {
            panic!("{}: trace file is a JSON array", workload.name());
        };
        assert!(!spans.is_empty());
        if workload == Workload::QueryMix {
            assert_eq!(
                outcome.metrics["scenario.writes_per_response"], 2.0,
                "the server writes payload and newline separately"
            );
        }
    }
    std::fs::remove_dir_all(trace_dir).ok();
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let benchmark: Value = serde_json::from_str(&text).unwrap();
    let entries = |key: &str| -> Vec<(String, String)> {
        let Some(Value::Array(items)) = benchmark.get(key) else {
            panic!("BENCHMARK.json has a {key} list");
        };
        items
            .iter()
            .map(|item| {
                let field = |name: &str| match item.get(name) {
                    Some(Value::Str(text)) => text.clone(),
                    _ => String::new(),
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let expected = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(name, unit)| ((*name).to_owned(), (*unit).to_owned()))
            .collect()
    };
    assert_eq!(entries("end_to_end"), expected(&END_TO_END));
    assert_eq!(entries("per_layer"), expected(&PER_LAYER));
    let workloads: Vec<String> = entries("workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, names);
}
