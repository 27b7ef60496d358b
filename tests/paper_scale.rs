//! Paper-scale pin: the committed `results/profiles.json` carries the
//! current profile fingerprint, the three smallest table kernels,
//! profiled at the paper's budgets through MICA and both machine models,
//! reproduce their records in it byte for byte, and the analysis commands
//! run on it rewrite every other committed artifact byte for byte.

use mica_suite::experiments::commands::{all, report, Analysis};
use mica_suite::experiments::profile::{profile_benchmark, profile_fingerprint, scaled_budget};
use mica_suite::experiments::results::ProfileSet;
use mica_suite::experiments::runner::Runner;
use mica_suite::prelude::*;
use std::path::{Path, PathBuf};

/// 0.30–0.37 M instructions each at scale 1.
const KERNELS: [&str; 3] = ["MediaBench/mesa/osdemo", "MiBench/jpeg/djpeg", "MiBench/susan/corners (large)"];

fn committed() -> ProfileSet {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/profiles.json");
    let text = std::fs::read_to_string(path).expect("committed profiles.json");
    serde_json::from_str(&text).expect("profiles.json parses")
}

#[test]
fn committed_profiles_match_the_current_fingerprint() {
    // The cache check every analysis command runs: a kernel, table or
    // metric-layout edit that forgot to refresh `results/` fails here.
    assert_eq!(committed().fingerprint, profile_fingerprint());
}

#[test]
fn smallest_kernels_reproduce_their_committed_profiles() {
    let committed = committed();
    assert_eq!(committed.scale, 1.0, "the committed profiles are the paper-scale ones");
    let table = benchmark_table();
    for name in KERNELS {
        let spec = table.iter().find(|s| s.name() == name).expect("kernel in the table");
        let want = committed.records.iter().find(|r| r.name == name).expect("kernel in profiles.json");
        let got = profile_benchmark(spec, scaled_budget(spec, 1.0)).expect("kernel profiles");
        assert_eq!(
            serde_json::to_string(&got).expect("record serializes"),
            serde_json::to_string(want).expect("record serializes"),
            "{name}"
        );
    }
}

/// Files under `dir`, relative to it, sorted.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("directory lists") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                out.push(path.strip_prefix(root).expect("under root").to_path_buf());
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

#[test]
fn analysis_commands_rewrite_every_committed_artifact() {
    // The runner only times stages here: it is never finished, so no run
    // summary is written, and the commands write into `dir` alone.
    let dir = std::env::temp_dir().join(format!("mica_paper_scale_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut run = Runner::new("paper_scale");
    let analysis = Analysis::new(committed(), dir.clone());
    all(&mut run, &analysis);
    report(&mut run, &analysis);

    // `profile` and `sensitivity` write `profiles.json` and `sensitivity.csv`,
    // and `.gitignore` keeps run summaries out of `results/`; the commands
    // write every other file there.
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let expected: Vec<PathBuf> = files_under(&results)
        .into_iter()
        .filter(|f| {
            let name = f.to_string_lossy();
            name != "profiles.json"
                && name != "sensitivity.csv"
                && !(name.starts_with("run-") && name.ends_with(".json"))
        })
        .collect();
    let written = files_under(&dir);
    assert_eq!(written, expected, "the commands write exactly the committed artifacts");
    assert_eq!(written.len(), 139, "17 top-level artifacts plus 122 fig6/ kiviats");
    let differ: Vec<&PathBuf> = written
        .iter()
        .filter(|f| std::fs::read(dir.join(f)).ok() != std::fs::read(results.join(f)).ok())
        .collect();
    assert!(differ.is_empty(), "differ from results/: {differ:?}");
    std::fs::remove_dir_all(&dir).ok();
}
