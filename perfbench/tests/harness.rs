//! Every workload at a tiny size through the library API, end to end and
//! traced, plus a negative oracle test and a check that `BENCHMARK.json`
//! names exactly what the harness reports.
//!
//! One test function runs the workloads in sequence: they pin the process
//! environment and boot in-process servers, so they must not overlap.
//! The `analyze-cached` workload launches the release `all` binary, which
//! this test builds first.

use mica_perfbench::{
    pin_env, run_workload, Outcome, Params, E2E_METRICS, PER_LAYER_METRICS, WORKLOADS,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root")
        .to_path_buf()
}

/// Build the experiment binaries `analyze-cached` launches; returns
/// their directory.
fn build_experiment_bins(target: &Path) -> PathBuf {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
        .args(["-p", "mica-experiments"])
        .env("CARGO_TARGET_DIR", target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building the experiment binaries failed");
    target.join("release")
}

fn names(outcome: &Outcome) -> BTreeSet<&str> {
    outcome.metrics.keys().map(String::as_str).collect()
}

fn assert_clean(workload: &str, outcome: &Outcome, expected: &BTreeSet<&str>) {
    assert!(outcome.attempted > 0, "{workload}: nothing checked");
    assert_eq!(
        outcome.failed, 0,
        "{workload}: {} of {} failed",
        outcome.failed, outcome.attempted
    );
    assert_eq!(
        &names(outcome),
        expected,
        "{workload}: reported metric names"
    );
    for (name, m) in &outcome.metrics {
        assert!(m.value.is_finite(), "{workload}: {name} = {}", m.value);
    }
}

#[test]
fn workloads_run_at_tiny_size_and_oracles_catch_corruption() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-harness");
    std::fs::remove_dir_all(&tmp).ok();
    let bin_dir = build_experiment_bins(tmp.parent().and_then(Path::parent).expect("target dir"));
    pin_env(&tmp.join("pinned"));

    // profile-paper at the 10 000-instruction floor needs its own golden
    // profile set, made here with the pinned configuration.
    let tiny_golden = tmp.join("golden-tiny");
    let set = mica_experiments::profile::profile_all(1e-9)
        .expect("profiles")
        .set;
    set.save(&tiny_golden.join("profiles.json"))
        .expect("golden saved");

    let params = |golden: &Path, work: &str| Params {
        seed: 5,
        seconds: 0.5,
        golden: golden.to_path_buf(),
        work: tmp.join(work),
        bin_dir: bin_dir.clone(),
        profile_scale: 1.0,
        lookup_rate: 200.0,
        zoo_kernels: 4,
        zoo_scale: Some(1e-9),
        setups: 1,
    };
    let e2e: BTreeSet<&str> = E2E_METRICS.iter().map(|(n, _)| *n).collect();
    let layers: BTreeSet<&str> = PER_LAYER_METRICS.iter().map(|(n, _)| *n).collect();
    let results = repo().join("results");
    for workload in WORKLOADS {
        let mut p = params(&results, workload);
        if workload == "profile-paper" {
            p = Params {
                golden: tiny_golden.clone(),
                profile_scale: 1e-9,
                ..p
            };
        }
        for (trace, expected) in [(false, &e2e), (true, &layers)] {
            let outcome = run_workload(workload, &p, trace)
                .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"));
            assert_clean(workload, &outcome, expected);
            if trace {
                assert!(
                    !outcome.spans.is_empty(),
                    "{workload}: traced run recorded no spans"
                );
            }
        }
    }

    // Negative: one flipped byte in the golden copy must fail the oracle.
    let path = tiny_golden.join("profiles.json");
    let mut bytes = std::fs::read(&path).expect("golden readable");
    // The first fraction digit of the first vector value.
    let vector = bytes
        .windows(9)
        .position(|w| w == b"\"values\":")
        .expect("a vector");
    let at = vector
        + bytes[vector..]
            .iter()
            .position(|&b| b == b'.')
            .expect("a fraction")
        + 1;
    bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
    std::fs::write(&path, bytes).expect("golden writable");
    let p = Params {
        golden: tiny_golden,
        profile_scale: 1e-9,
        ..params(&results, "negative")
    };
    let outcome = run_workload("profile-paper", &p, false).expect("runs");
    assert!(
        outcome.failed > 0,
        "a corrupted golden must count as a failure"
    );
    std::fs::remove_dir_all(&tmp).ok();
}

/// The committed `BENCHMARK.json` names the harness's workloads and
/// metrics, with their units.
#[test]
fn benchmark_json_matches_the_harness() {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let v: serde::Value = serde_json::from_str(&text).expect("valid JSON");
    let list = |key: &str| -> Vec<(String, String)> {
        v.field(key)
            .and_then(serde::Value::as_array)
            .unwrap_or_else(|| panic!("`{key}` is a list"))
            .iter()
            .map(|e| {
                let s = |f: &str| match e.field(f) {
                    Some(serde::Value::String(s)) => s.clone(),
                    _ => String::new(),
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |l: &[(&str, &str)]| {
        l.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(list("end_to_end"), own(&E2E_METRICS));
    assert_eq!(list("per_layer"), own(&PER_LAYER_METRICS));
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}
