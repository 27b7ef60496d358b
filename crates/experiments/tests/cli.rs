//! End-to-end tests of the experiment binaries' budget-scale handling:
//! `sensitivity` validates `MICA_SCALE` like `profile` does and quarantines
//! a failing kernel instead of dying, and an unparseable `MICA_SCALE` is an
//! error rather than a silent scale of 1.

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
