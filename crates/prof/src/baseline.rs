//! The performance baseline and the regression gate over it.
//!
//! `BENCH_pipeline.json` is a **trajectory**, not a single snapshot: a
//! schema-versioned append-only list of [`BaselineEntry`] records, each
//! holding one full [`RunSummary`]. `mica-prof record` appends the current
//! run (capped at [`MAX_ENTRIES`], oldest dropped); `mica-prof check`
//! compares the current run against the *median* of the comparable entries
//! — median-of-N is what makes the gate noise-aware, a single slow CI
//! machine in the history cannot move it much.
//!
//! A run is **comparable** to an entry when bin, thread count, workload
//! table fingerprint, and budget scale all match — timings across
//! different configurations say nothing about regressions.
//!
//! A stage regresses when it is slower than the baseline median by *both*
//! the relative threshold (`max_ratio`) and the absolute floor
//! (`min_abs_s`). The floor keeps millisecond-scale stages from tripping
//! the gate on scheduler jitter; the ratio keeps ten-minute stages from
//! needing to double before anyone notices.

use crate::analysis::median;
use mica_experiments::runner::RunSummary;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Current baseline file schema. Bump on incompatible layout changes; a
/// file with a different schema (or no schema at all — the pre-trajectory
/// format was a bare `RunSummary`) is treated as absent and rebuilt.
pub const SCHEMA: u64 = 1;

/// Entries kept per baseline file; oldest are dropped on `record`.
pub const MAX_ENTRIES: usize = 20;

/// One recorded run in the trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineEntry {
    /// Monotonic sequence number within this file.
    pub seq: u64,
    /// Unix seconds when the entry was recorded.
    pub unix_ts: u64,
    /// Free-form label (commit hash in CI).
    pub label: String,
    /// The run being recorded.
    pub summary: RunSummary,
}

/// The baseline file: a bounded history of runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Baseline {
    /// File schema, [`SCHEMA`].
    pub schema: u64,
    /// Recorded runs, oldest first.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// An empty trajectory at the current schema.
    pub fn empty() -> Baseline {
        Baseline { schema: SCHEMA, entries: Vec::new() }
    }

    /// Load `path`, tolerating absence and format drift: a missing,
    /// unparseable, or different-schema file yields an empty trajectory
    /// (the gate then passes vacuously and the next `record` rebuilds it).
    pub fn load_or_empty(path: &Path) -> Baseline {
        let Ok(text) = std::fs::read_to_string(path) else {
            return Baseline::empty();
        };
        match serde_json::from_str::<Baseline>(&text) {
            Ok(b) if b.schema == SCHEMA => b,
            _ => Baseline::empty(),
        }
    }

    /// Append one run, assigning the next sequence number and trimming to
    /// [`MAX_ENTRIES`]; returns the assigned sequence number.
    pub fn record(&mut self, summary: RunSummary, label: &str, unix_ts: u64) -> u64 {
        let seq = self.entries.iter().map(|e| e.seq).max().map_or(0, |s| s + 1);
        self.entries.push(BaselineEntry { seq, unix_ts, label: label.to_string(), summary });
        if self.entries.len() > MAX_ENTRIES {
            let drop = self.entries.len() - MAX_ENTRIES;
            self.entries.drain(..drop);
        }
        seq
    }

    /// Write the trajectory atomically (temp-then-rename with retry).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the atomic write.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self).expect("Baseline serializes");
        mica_fault::io::atomic_write_retry("prof.baseline", path, json.as_bytes())
    }

    /// Entries comparable to `cur`: same bin, threads, table fingerprint,
    /// and budget scale.
    pub fn comparable(&self, cur: &RunSummary) -> Vec<&BaselineEntry> {
        self.entries
            .iter()
            .filter(|e| {
                let s = &e.summary;
                s.bin == cur.bin
                    && s.threads == cur.threads
                    && s.table_fingerprint == cur.table_fingerprint
                    && (s.scale - cur.scale).abs() <= 1e-12 * s.scale.abs().max(1.0)
            })
            .collect()
    }
}

/// Gate thresholds. A subject regresses only when it exceeds the baseline
/// median by **both** bounds.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Relative bound: regression requires `current > median × max_ratio`.
    pub max_ratio: f64,
    /// Absolute floor in seconds: regression requires
    /// `current − median > min_abs_s`.
    pub min_abs_s: f64,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig { max_ratio: 1.6, min_abs_s: 0.05 }
    }
}

/// How bad one finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Context only.
    Info,
    /// Suspicious but not gating.
    Warn,
    /// Gates: `mica-prof check` exits nonzero.
    Regression,
}

impl Severity {
    /// Uppercase tag for report lines.
    pub fn tag(self) -> &'static str {
        match self {
            Severity::Info => "INFO",
            Severity::Warn => "WARN",
            Severity::Regression => "REGRESSION",
        }
    }
}

/// One gate observation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Severity; any [`Severity::Regression`] fails the gate.
    pub severity: Severity,
    /// What the finding is about (`total`, `stage profile`, …).
    pub subject: String,
    /// Human-readable explanation with the numbers.
    pub message: String,
}

impl Finding {
    fn new(severity: Severity, subject: &str, message: String) -> Finding {
        Finding { severity, subject: subject.to_string(), message }
    }
}

fn judge(subject: &str, cur: f64, med: f64, n: usize, cfg: &CheckConfig, out: &mut Vec<Finding>) {
    let regressed = cur > med * cfg.max_ratio && cur - med > cfg.min_abs_s;
    let severity = if regressed { Severity::Regression } else { Severity::Info };
    let ratio = if med > 0.0 { cur / med } else { f64::INFINITY };
    out.push(Finding::new(
        severity,
        subject,
        format!(
            "{subject}: {cur:.3}s vs baseline median {med:.3}s over {n} run(s) ({ratio:.2}x, \
             gate {:.2}x + {:.3}s)",
            cfg.max_ratio, cfg.min_abs_s
        ),
    ));
}

/// Compare `cur` against the baseline trajectory. The gate fails iff any
/// returned finding is [`Severity::Regression`].
pub fn check(base: &Baseline, cur: &RunSummary, cfg: &CheckConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    let comparable = base.comparable(cur);
    if comparable.is_empty() {
        findings.push(Finding::new(
            Severity::Info,
            "baseline",
            format!(
                "no comparable baseline entries for bin={} threads={} scale={} \
                 fingerprint={:#x} ({} total entries) — gate passes vacuously",
                cur.bin,
                cur.threads,
                cur.scale,
                cur.table_fingerprint,
                base.entries.len()
            ),
        ));
        return findings;
    }

    let walls: Vec<f64> = comparable.iter().map(|e| e.summary.wall_s).collect();
    judge("total", cur.wall_s, median(&walls), walls.len(), cfg, &mut findings);

    for stage in &cur.stages {
        let base_walls: Vec<f64> = comparable
            .iter()
            .filter_map(|e| {
                e.summary.stages.iter().find(|s| s.name == stage.name).map(|s| s.wall_s)
            })
            .collect();
        if base_walls.is_empty() {
            findings.push(Finding::new(
                Severity::Info,
                &format!("stage {}", stage.name),
                format!("stage {}: new, no baseline ({:.3}s)", stage.name, stage.wall_s),
            ));
            continue;
        }
        judge(
            &format!("stage {}", stage.name),
            stage.wall_s,
            median(&base_walls),
            base_walls.len(),
            cfg,
            &mut findings,
        );
    }

    // Health warnings that should never silently ride through CI.
    if !cur.quarantined.is_empty() {
        findings.push(Finding::new(
            Severity::Warn,
            "quarantine",
            format!("{} benchmark(s) quarantined this run", cur.quarantined.len()),
        ));
    }
    let dropped = "obs.trace.dropped_events";
    if let Some(c) = cur.counters.iter().find(|c| c.name == dropped && c.value > 0) {
        findings.push(Finding::new(
            Severity::Warn,
            dropped,
            format!("{dropped} = {} — observability lost records", c.value),
        ));
    }
    findings
}

/// Render findings, worst first, as the report `mica-prof check` prints.
pub fn render_findings(findings: &[Finding]) -> String {
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort_by_key(|f| std::cmp::Reverse(f.severity));
    let mut out = String::new();
    for f in sorted {
        out.push_str(&format!("[{}] {}\n", f.severity.tag(), f.message));
    }
    out
}

/// Whether any finding gates.
pub fn has_regression(findings: &[Finding]) -> bool {
    findings.iter().any(|f| f.severity == Severity::Regression)
}
