//! The `scenario` binary's argument handling: unknown flags and extra paths
//! are errors that write nothing, and a spec file runs as a one-spec batch.

use dht_experiments::spec::{run_spec, ScenarioSpec};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scenario(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(args)
        .current_dir(cwd)
        .output()
        .unwrap()
}

/// A fresh, empty scratch directory for one test.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dht-scenario-cli-{label}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&path).unwrap())
        })
        .collect()
}

#[test]
fn unknown_flags_and_extra_paths_are_rejected_and_write_nothing() {
    let cwd = scratch("bad-args");
    let specs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    for args in [
        &["run", "--prety", specs][..],
        &["run", specs, specs][..],
        &["init", "i1", "i2", "--papr"][..],
        &["init", "i1", "--papr"][..],
    ] {
        let output = scenario(&cwd, args);
        assert!(!output.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: scenario run"), "{args:?}: {stderr}");
        assert!(files(&cwd).is_empty(), "{args:?} wrote {:?}", files(&cwd));
    }
    fs::remove_dir_all(&cwd).ok();
}

#[test]
fn a_spec_file_runs_as_a_one_spec_batch() {
    let base = scratch("file");
    let spec_dir = base.join("specs");
    fs::create_dir_all(&spec_dir).unwrap();
    let file = spec_dir.join("fig6a_failed_paths.json");
    let committed = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/fig6a_failed_paths.json"
    );
    fs::copy(committed, &file).unwrap();

    let from_dir = scenario(&base, &["run", "specs", "--out", "dir"]);
    assert!(from_dir.status.success(), "{from_dir:?}");
    let from_file = scenario(
        &base,
        &["run", "specs/fig6a_failed_paths.json", "--out", "file"],
    );
    assert!(from_file.status.success(), "{from_file:?}");
    // Same report, CSV and manifest bytes either way.
    assert_eq!(files(&base.join("file")), files(&base.join("dir")));

    let spec = ScenarioSpec::from_json(&fs::read_to_string(&file).unwrap()).unwrap();
    let outcome = run_spec(&spec, None).unwrap();
    let stdout = String::from_utf8(from_file.stdout).unwrap();
    assert!(stdout.contains(&outcome.headline), "{stdout}");
    assert!(stdout.contains(&outcome.table), "{stdout}");
    fs::remove_dir_all(&base).ok();
}
