//! End-to-end tests of the experiment binaries: `sensitivity` validates
//! `MICA_SCALE` like `profile` does and quarantines a failing kernel
//! instead of dying, an unparseable `MICA_SCALE` is an error rather than a
//! silent scale of 1, `all` loads the cache and runs the GA once, and a
//! cache-hit run summary records the table fingerprint its cache check
//! computed.

use mica_experiments::runner::RunSummary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mica_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `bin` with its results in `dir` at budget scale `scale`, the
/// observability and fault knobs cleared unless `env` sets them.
fn run(bin: &str, dir: &Path, scale: &str, env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    for knob in ["MICA_TRACE", "MICA_EVENTS", "MICA_PMU", "MICA_FAULTS", "MICA_ALLOC"] {
        cmd.env_remove(knob);
    }
    cmd.env("MICA_RESULTS_DIR", dir)
        .env("MICA_SCALE", scale)
        .env("MICA_THREADS", "2")
        .env("MICA_LOG", "warn")
        .envs(env.iter().copied())
        .output()
        .expect("binary runs")
}

#[test]
fn sensitivity_rejects_a_zero_scale() {
    let dir = temp_dir("sensitivity_zero");
    let out = run(env!("CARGO_BIN_EXE_sensitivity"), &dir, "0", &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "scale 0 must fail; stderr:\n{stderr}");
    assert!(stderr.contains("budget scale must be finite and positive"), "{stderr}");
    assert!(!dir.join("sensitivity.csv").exists());
}

#[test]
fn sensitivity_quarantines_a_panicking_kernel_and_compares_the_rest() {
    let dir = temp_dir("sensitivity_fault");
    let out = run(
        env!("CARGO_BIN_EXE_sensitivity"),
        &dir,
        "1e-9",
        &[("MICA_FAULTS", "panic:kernel=CRC32")],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr:\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("QUARANTINED (n=1): continuing on 121 of 122 benchmarks"), "{stdout}");
    assert!(stdout.contains("injected fault: kernel MiBench/CRC32/large (MICA_FAULTS)"), "{stdout}");
    let csv = std::fs::read_to_string(dir.join("sensitivity.csv")).expect("csv written");
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("alpha_distance,modern_distance"));
    assert_eq!(lines.count(), 121 * 120 / 2);
}

#[test]
fn an_unparseable_scale_is_an_error_not_scale_one() {
    // With the committed paper-scale cache in place, reading the typo as
    // scale 1 would answer from the cache and exit 0.
    let dir = temp_dir("table1_typo");
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/profiles.json");
    std::fs::copy(committed, dir.join("profiles.json")).expect("committed cache copies");
    let out = run(env!("CARGO_BIN_EXE_table1"), &dir, "1e-9x", &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "MICA_SCALE=1e-9x must fail; stderr:\n{stderr}");
    assert!(stderr.contains("MICA_SCALE=\"1e-9x\" is not a number"), "{stderr}");
    assert!(!dir.join("table1.csv").exists());
}

/// Run the binary `name` at `exe` at scale 1 on a copy of the committed
/// cache; return its run summary.
fn run_on_committed_cache(name: &str, exe: &str) -> RunSummary {
    let dir = temp_dir(name);
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/profiles.json");
    std::fs::copy(committed, dir.join("profiles.json")).expect("committed cache copies");
    let out = run(exe, &dir, "1", &[]);
    assert!(out.status.success(), "{name}: stderr:\n{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(dir.join(format!("run-{name}.json"))).expect("run summary");
    serde_json::from_str(&text).expect("run summary parses")
}

fn counters(summary: &RunSummary) -> BTreeMap<&str, u64> {
    summary.counters.iter().map(|c| (c.name.as_str(), c.value)).collect()
}

#[test]
fn all_loads_the_cache_once_and_runs_the_k8_ga_once() {
    let all = run_on_committed_cache("all", env!("CARGO_BIN_EXE_all"));
    let table4 = run_on_committed_cache("table4", env!("CARGO_BIN_EXE_table4"));

    // Each run hands the fingerprint its cache check computed to its run
    // summary.
    assert_eq!(table4.table_fingerprint, mica_workloads::table_fingerprint());
    assert_eq!(all.table_fingerprint, table4.table_fingerprint);

    let stages: Vec<&str> = all.stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(stages[0], "profiles", "{stages:?}");
    assert_eq!(stages.iter().filter(|&&s| s == "profiles").count(), 1, "{stages:?}");
    let (all, table4) = (counters(&all), counters(&table4));
    assert_eq!(all["profile.cache.hit"], 1);
    let misses: Vec<_> = all.iter().filter(|(k, _)| k.starts_with("profile.cache.miss.")).collect();
    assert!(!misses.is_empty() && misses.iter().all(|(_, &v)| v == 0), "{misses:?}");

    // Table IV runs the free GA and the k = 8 one; so does `all`, whose
    // Figs. 4-6 read the k = 8 selection it already made. Breeding is
    // serial and a run scores each genome once, so the counts repeat
    // exactly.
    for counter in ["ga.generations", "ga.genomes_scored"] {
        assert!(table4[counter] > 0, "{counter}");
        assert_eq!(all[counter], table4[counter], "{counter}");
    }
}
