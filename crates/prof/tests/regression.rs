//! End-to-end gate tests against the real `mica-prof` binary: an
//! unmodified run passes (exit 0), a synthetic 2× stage slowdown fails
//! (exit 2) and the report names the regressed stage.

use mica_experiments::runner::{CounterEntry, RunSummary, StageSummary};
use mica_prof::baseline::{Baseline, MAX_ENTRIES};
use std::path::{Path, PathBuf};
use std::process::Command;

fn summary(profile_s: f64) -> RunSummary {
    RunSummary {
        bin: "profile".to_string(),
        scale: 1e-6,
        threads: 4,
        table_fingerprint: 0xabcd,
        wall_s: profile_s + 0.1,
        stages: vec![
            StageSummary { name: "profile".to_string(), wall_s: profile_s },
            StageSummary { name: "save".to_string(), wall_s: 0.1 },
        ],
        counters: vec![CounterEntry { name: "profile.kernels".to_string(), value: 122 }],
        histograms: Vec::new(),
        quarantined: Vec::new(),
    }
}

fn write_baseline(path: &Path, walls: &[f64]) {
    let mut base = Baseline::empty();
    for (i, &w) in walls.iter().enumerate() {
        base.record(summary(w), &format!("seed-{i}"), 1_700_000_000 + i as u64);
    }
    base.save(path).expect("baseline written");
}

fn write_summary(path: &Path, s: &RunSummary) {
    std::fs::write(path, serde_json::to_string_pretty(s).unwrap()).expect("summary written");
}

struct Gate {
    code: i32,
    stdout: String,
}

fn run_check(dir: &Path, extra: &[&str]) -> Gate {
    let out = Command::new(env!("CARGO_BIN_EXE_mica-prof"))
        .arg("check")
        .arg("--summary")
        .arg(dir.join("current.json"))
        .arg("--baseline")
        .arg(dir.join("baseline.json"))
        .args(extra)
        .output()
        .expect("mica-prof runs");
    Gate {
        code: out.status.code().expect("exit code"),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mica_prof_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn unmodified_run_passes_the_gate() {
    let dir = temp_dir("pass");
    write_baseline(&dir.join("baseline.json"), &[2.0, 2.1, 1.9]);
    write_summary(&dir.join("current.json"), &summary(2.05));
    let gate = run_check(&dir, &[]);
    assert_eq!(gate.code, 0, "stdout:\n{}", gate.stdout);
    assert!(gate.stdout.contains("gate passed"), "{}", gate.stdout);
    assert!(!gate.stdout.contains("REGRESSION"), "{}", gate.stdout);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn doubled_stage_fails_the_gate_and_names_the_stage() {
    let dir = temp_dir("fail");
    write_baseline(&dir.join("baseline.json"), &[2.0, 2.1, 1.9]);
    write_summary(&dir.join("current.json"), &summary(4.0));
    let gate = run_check(&dir, &[]);
    assert_eq!(gate.code, 2, "stdout:\n{}", gate.stdout);
    assert!(
        gate.stdout.contains("[REGRESSION] stage profile"),
        "report must name the regressed stage:\n{}",
        gate.stdout
    );
    // The untouched stage stays informational.
    assert!(!gate.stdout.contains("[REGRESSION] stage save"), "{}", gate.stdout);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn incomparable_baseline_passes_vacuously() {
    let dir = temp_dir("vacuous");
    write_baseline(&dir.join("baseline.json"), &[2.0]);
    let mut cur = summary(100.0);
    cur.threads = 8; // different configuration — timings not comparable
    write_summary(&dir.join("current.json"), &cur);
    let gate = run_check(&dir, &[]);
    assert_eq!(gate.code, 0, "stdout:\n{}", gate.stdout);
    assert!(gate.stdout.contains("vacuously"), "{}", gate.stdout);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn thresholds_are_tunable_from_the_command_line() {
    let dir = temp_dir("tunable");
    write_baseline(&dir.join("baseline.json"), &[2.0, 2.0, 2.0]);
    write_summary(&dir.join("current.json"), &summary(4.0));
    // A 3x allowance lets the 2x slowdown through.
    let gate = run_check(&dir, &["--max-ratio", "3.0"]);
    assert_eq!(gate.code, 0, "stdout:\n{}", gate.stdout);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn record_appends_assigns_seqs_and_rebuilds_legacy_files() {
    let dir = temp_dir("record");
    let baseline = dir.join("baseline.json");
    // A legacy (pre-trajectory) file was a bare RunSummary: unreadable as
    // a trajectory, so `record` starts a fresh one instead of failing.
    write_summary(&baseline, &summary(2.0));

    write_summary(&dir.join("current.json"), &summary(2.0));
    for i in 0..2 {
        let out = Command::new(env!("CARGO_BIN_EXE_mica-prof"))
            .arg("record")
            .arg("--summary")
            .arg(dir.join("current.json"))
            .arg("--baseline")
            .arg(&baseline)
            .arg("--label")
            .arg(format!("commit-{i}"))
            .output()
            .expect("mica-prof runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }

    let base = Baseline::load_or_empty(&baseline);
    assert_eq!(base.entries.len(), 2, "legacy file was replaced by a fresh trajectory");
    assert_eq!(
        base.entries.iter().map(|e| e.seq).collect::<Vec<u64>>(),
        [0, 1],
        "sequence numbers are assigned in order"
    );
    assert!(base.entries.len() <= MAX_ENTRIES);
    assert_eq!(base.entries.last().unwrap().label, "commit-1");
    std::fs::remove_dir_all(dir).ok();
}
