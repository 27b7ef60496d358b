//! Where a result came from: enough to decide whether two result files,
//! possibly taken months apart, compare honestly.

use serde::{Deserialize, Serialize};
use std::path::Path;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// The provenance block of a result file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// Available parallelism of the host.
    pub nproc: u64,
    /// First `model name` in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// The pinned `MICA_*` environment, as `(name, value)`.
    pub pinned_env: Vec<(String, String)>,
    /// First seed of the runs.
    pub seed: u64,
    /// Seconds each run measured.
    pub seconds: f64,
    /// Fingerprint of the benchmark table the binary was built with.
    pub table_fingerprint: u64,
    /// Fingerprint of the profile layout (table × metric count).
    pub profile_fingerprint: u64,
    /// Fingerprint recorded in the committed `profiles.json`.
    pub golden_profile_fingerprint: u64,
    /// Unix time the runs started.
    pub started_unix_s: u64,
    /// Unix time the runs finished.
    pub finished_unix_s: u64,
}

/// Unix time now, in seconds.
pub fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Collect the provenance of runs that started at `started_unix_s`.
pub fn collect(seed: u64, seconds: f64, golden: &Path, started_unix_s: u64) -> Provenance {
    let golden_profile_fingerprint =
        mica_experiments::results::ProfileSet::load(&golden.join("profiles.json"))
            .map(|s| s.fingerprint)
            .unwrap_or(0);
    Provenance {
        git_commit: command_line("git", &["rev-parse", "HEAD"]),
        nproc: std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1),
        cpu_model: cpu_model(),
        rustc: command_line("rustc", &["--version"]),
        pinned_env: crate::PINNED_ENV
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        seed,
        seconds,
        table_fingerprint: mica_workloads::table_fingerprint(),
        profile_fingerprint: mica_experiments::profile::profile_fingerprint(),
        golden_profile_fingerprint,
        started_unix_s,
        finished_unix_s: unix_now(),
    }
}
