//! Acceptance: the batch runner's output over a spec directory is
//! byte-identical across two runs and across thread counts.

use dht_experiments::spec::{ExperimentSpec, Family, ScenarioSpec};
use dht_scenario::{run_directory, BatchOptions};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

fn write_specs(dir: &Path) {
    fs::create_dir_all(dir).unwrap();
    let fig3 = ScenarioSpec::new(
        "fig3_smoke",
        2006,
        ExperimentSpec::Fig3 {
            failure_probability: 0.3,
            trials: 2_000,
        },
    );
    let table = Family::ScalabilityTable.default_spec(true);
    let resilience = ScenarioSpec::static_resilience("ring", 8, 0.3, 500, 1, 7);
    for spec in [&fig3, &table, &resilience] {
        fs::write(
            dir.join(format!("{}.json", spec.name)),
            spec.to_json_pretty(),
        )
        .unwrap();
    }
}

/// Every output file's bytes, keyed by file name.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            (
                path.file_name().unwrap().to_string_lossy().into_owned(),
                fs::read(&path).unwrap(),
            )
        })
        .collect()
}

#[test]
fn batch_output_is_byte_identical_across_runs_and_thread_counts() {
    let base = std::env::temp_dir().join(format!("dht-scenario-batch-{}", std::process::id()));
    let spec_dir = base.join("specs");
    write_specs(&spec_dir);

    let mut snapshots = Vec::new();
    let mut manifests = Vec::new();
    for (label, threads) in [("a", Some(1)), ("b", Some(1)), ("c", Some(4))] {
        let out = base.join(label);
        let options = BatchOptions {
            output_dir: out.clone(),
            threads,
            ..BatchOptions::new(&out)
        };
        manifests.push(run_directory(&spec_dir, &options).unwrap());
        snapshots.push(snapshot(&out));
    }

    assert_eq!(manifests[0], manifests[1], "manifest stable across runs");
    assert_eq!(manifests[0], manifests[2], "manifest stable across threads");
    assert_eq!(snapshots[0], snapshots[1], "bytes stable across runs");
    assert_eq!(snapshots[0], snapshots[2], "bytes stable across threads");

    // One report per spec plus the manifest itself.
    assert_eq!(snapshots[0].len(), 4);
    assert!(snapshots[0].contains_key("manifest.json"));
    assert!(snapshots[0].contains_key("fig3_smoke.json"));

    fs::remove_dir_all(&base).ok();
}

#[test]
fn failing_spec_files_are_collected_without_aborting_the_batch() {
    let base = std::env::temp_dir().join(format!("dht-scenario-bad-{}", std::process::id()));
    fs::create_dir_all(&base).unwrap();
    // Sorted batch order: the broken file comes first, a spec that parses
    // but cannot run comes second, and a good spec comes last.
    fs::write(base.join("a_broken.json"), "{not json").unwrap();
    let unrunnable = ScenarioSpec::new(
        "bad_geometry",
        7,
        ExperimentSpec::StaticResilience {
            geometry: "torus".to_owned(),
            bits: 6,
            grid: vec![0.1],
            pairs: 50,
            trials: 1,
        },
    );
    fs::write(base.join("b_unrunnable.json"), unrunnable.to_json_pretty()).unwrap();
    let good = ScenarioSpec::static_resilience("ring", 6, 0.2, 100, 1, 3);
    fs::write(base.join("c_good.json"), good.to_json_pretty()).unwrap();

    let out = base.join("out");
    let manifest = run_directory(&base, &BatchOptions::new(&out)).unwrap();
    assert_eq!(manifest.len(), 3, "every file gets a manifest row");

    let broken = &manifest[0];
    assert_eq!(broken.file, "a_broken.json");
    let error = broken.error.as_deref().unwrap();
    assert!(error.contains("a_broken.json"), "{error}");
    assert!(broken.report.is_empty() && broken.spec_hash.is_empty());

    let bad_run = &manifest[1];
    assert_eq!(bad_run.file, "b_unrunnable.json");
    assert!(bad_run.error.is_some());
    assert_eq!(bad_run.name, "bad_geometry", "parsed identity is kept");
    assert_eq!(bad_run.spec_hash, unrunnable.content_hash_hex());
    assert!(bad_run.report.is_empty());

    let ok = &manifest[2];
    assert_eq!(ok.file, "c_good.json");
    assert_eq!(ok.error, None);
    assert!(out.join(&ok.report).is_file(), "good report was written");

    // The manifest on disk records the failures too.
    let written = fs::read_to_string(out.join("manifest.json")).unwrap();
    let rows: Vec<dht_scenario::BatchEntry> = serde_json::from_str(&written).unwrap();
    assert_eq!(rows, manifest);

    fs::remove_dir_all(&base).ok();
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The committed `specs/` bundle, pinned across commits: every file a batch
/// run writes (15 reports, 3 CSVs and the manifest) keeps its FNV-1a 64
/// digest, so a change that moves any report byte fails here.
#[test]
fn committed_spec_bundle_matches_its_golden_digests() {
    const GOLDEN: [(&str, u64); 19] = [
        ("failure_campaigns.json", 0x14b1_332f_5a02_1ad8),
        ("fig3_hypercube_example.json", 0x9a9d_7883_3d8c_2bc3),
        ("fig6a_failed_paths.csv", 0xfdb9_aab8_a243_f80d),
        ("fig6a_failed_paths.json", 0x039d_63c0_37c3_919f),
        ("fig6b_ring.csv", 0x0ab1_07e9_a30b_bcfa),
        ("fig6b_ring.json", 0x21aa_1e1c_bd68_39aa),
        ("fig7a_asymptotic.csv", 0xbf59_f229_09ff_1d16),
        ("fig7a_asymptotic.json", 0xb139_a96d_d0da_6c18),
        ("fig7b_routability_vs_n.json", 0x4389_fd9d_ec2b_cd7e),
        ("implicit_scale.json", 0xb94b_0206_0879_1669),
        ("live_churn.json", 0x186f_fef8_ed78_2b27),
        ("manifest.json", 0x2e38_e289_d239_c8ea),
        ("markov_validation.json", 0xc78a_7f96_2d09_c960),
        ("percolation_contrast.json", 0x7846_ca4b_454b_b265),
        ("ring_bound_gap.json", 0x872a_1775_ac1c_7cc5),
        ("scalability_table.json", 0xbcc3_05c2_4026_91a6),
        ("sparse_population.json", 0x801a_4ce8_b93b_a885),
        ("static_resilience.json", 0x8103_6669_69f2_b49a),
        ("symphony_ablation.json", 0x6030_248f_5457_3f31),
    ];
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let out = std::env::temp_dir().join(format!("dht-scenario-golden-{}", std::process::id()));
    run_directory(&specs, &BatchOptions::new(&out)).unwrap();
    let digests: BTreeMap<String, u64> = snapshot(&out)
        .into_iter()
        .map(|(file, bytes)| (file, fnv1a64(&bytes)))
        .collect();
    fs::remove_dir_all(&out).ok();
    let golden: BTreeMap<String, u64> = GOLDEN
        .iter()
        .map(|&(file, digest)| (file.to_owned(), digest))
        .collect();
    assert_eq!(digests, golden);
}
