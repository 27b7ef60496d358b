//! `mica-perfbench compare A.json B.json`: judge B against A, per
//! (end-to-end metric, workload), with the bounds `BENCHMARK.json` fixes.
//! Every bound is per metric, shared by all four workloads.
//!
//! The rules are those of the choosing-metrics method: a median worse by
//! more than the bound is a regression; where either side's run-to-run
//! spread (interquartile range over median) exceeds the bound the pair is
//! unresolved, unless every run of B beats every run of A; a gain needs B
//! to win at least nine tenths of the run pairs and the medians to differ
//! by more than A's own interquartile range. The same rule with A winning
//! marks a pair slower: worse beyond A's own spread but within the bound,
//! which a bound set by the noisiest workload would otherwise read as ok.

use crate::provenance::Provenance;
use crate::{quartiles, Report};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One run in a result file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// The run's seed.
    pub seed: u64,
    /// Whether this was a traced run.
    pub trace: bool,
    /// What the run printed as its last line.
    pub report: Report,
}

/// A result file: provenance plus every run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    /// Where the runs came from.
    pub provenance: Provenance,
    /// The runs, in execution order.
    pub runs: Vec<RunRecord>,
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` that `run` and `compare` read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSpec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<MetricSpec>,
}

impl BenchSpec {
    /// Read `BENCHMARK.json` from the repository root (the working
    /// directory).
    ///
    /// # Errors
    ///
    /// The file is missing or malformed.
    pub fn load() -> Result<BenchSpec, String> {
        load(Path::new("BENCHMARK.json"))
    }
}

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows, and no shown gain.
    Ok,
    /// Median worse than the baseline by more than the bound.
    Regressed,
    /// A gain by the nine-tenths rule.
    Improved,
    /// A loss by the nine-tenths rule, within the bound.
    Slower,
    /// Run-to-run spread wider than the bound.
    Unresolved,
}

/// Judge `b` against the baseline `a`.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs().max(f64::MIN_POSITIVE);
    let beats = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    if spread(qa) > bound || spread(qb) > bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let change = (qb[1] - qa[1]) / qa[1].abs().max(f64::MIN_POSITIVE);
    let worse = if higher_is_better { -change } else { change };
    if worse > bound {
        return Verdict::Regressed;
    }
    let pairs = a.len().min(b.len());
    let wins = |x: &[f64], y: &[f64]| (0..pairs).filter(|&i| beats(x[i], y[i])).count();
    let resolved =
        |wins: usize| pairs > 0 && wins * 10 >= pairs * 9 && (qb[1] - qa[1]).abs() > qa[2] - qa[0];
    if resolved(wins(b, a)) {
        Verdict::Improved
    } else if resolved(wins(a, b)) {
        Verdict::Slower
    } else {
        Verdict::Ok
    }
}

fn load<T: serde::Deserialize>(path: &Path) -> Result<T, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Values of `metric` over the untraced runs of `workload`.
fn values(file: &ResultFile, workload: &str, metric: &str) -> Vec<f64> {
    file.runs
        .iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.report.metrics.get(metric).map(|m| m.value))
        .collect()
}

/// Print the comparison table; returns whether any pair regressed.
///
/// # Errors
///
/// A file is missing or malformed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (fa, fb): (ResultFile, ResultFile) = (load(a)?, load(b)?);
    let spec = BenchSpec::load()?;
    for (label, f) in [("A", &fa), ("B", &fb)] {
        let p = &f.provenance;
        let failed: u64 = f.runs.iter().map(|r| r.report.failed).sum();
        let attempted: u64 = f.runs.iter().map(|r| r.report.attempted).sum();
        println!(
            "{label}: commit {} on {} ({} cpus), {} runs, {failed}/{attempted} failed",
            p.git_commit,
            p.cpu_model,
            p.nproc,
            f.runs.len()
        );
    }
    let mut workloads: Vec<&str> = fa.runs.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();
    println!(
        "\n{:<16} {:<18} {:>30} {:>30} {:>8} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut regressed = false;
    for w in workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (values(&fa, w, &m.name), values(&fb, w, &m.name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<16} {:<18} (missing on one side)", m.name);
                continue;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let v = verdict(&va, &vb, m.bound, m.better == "higher");
            regressed |= v == Verdict::Regressed;
            let cell = |q: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2]);
            println!(
                "{w:<16} {:<18} {:>30} {:>30} {:>+7.2}% {:>6.1}%  {v:?}",
                m.name,
                cell(qa),
                cell(qb),
                100.0 * (qb[1] - qa[1]) / qa[1].abs().max(f64::MIN_POSITIVE),
                100.0 * m.bound
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rules() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same distribution: ok.
        assert_eq!(
            verdict(&base, &[100.2, 99.8, 100.1, 100.4, 99.6], 0.08, false),
            Verdict::Ok
        );
        // Lower is better and B is 20% higher: regressed.
        let worse: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&base, &worse, 0.08, false), Verdict::Regressed);
        // The same change is a gain when higher is better.
        assert_eq!(verdict(&base, &worse, 0.08, true), Verdict::Improved);
        // Within a wide bound, a change beyond A's spread is slower, not ok.
        assert_eq!(verdict(&base, &worse, 0.25, false), Verdict::Slower);
        // A spread wider than the bound cannot be resolved...
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(verdict(&base, &noisy, 0.08, false), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        let fast_noisy = [10.0, 30.0, 20.0, 12.0, 28.0];
        assert_eq!(verdict(&base, &fast_noisy, 0.08, false), Verdict::Improved);
    }
}
