//! The SLO audit over the serve daemon's access log.
//!
//! `mica-serve` writes one line per request line it read to
//! `<results>/serve-access.jsonl`. This module replays that log and
//! scores it against a latency objective; it is the only place an SLO is
//! scored, so CI gates on the artifact.
//!
//! Parsing follows the [`crate::trace`] philosophy: tolerant. A line that
//! does not parse or lacks the fields this version needs is counted and
//! skipped, never fatal — the audit says what it can about logs written
//! by newer or older servers.
//!
//! The definition: an answer is **good** when its outcome is `ok` and its
//! `queue_wait_us + exec_us` is within the objective. Refusals
//! (`overloaded`/`draining`), unparseable request lines
//! (`kind: "invalid"`) and control-plane `ops` scrapes are not answers
//! and are excluded from the denominator.

use serde::Value;
use std::collections::BTreeMap;

/// The audit's result over one access log.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The latency objective the log was scored against, milliseconds.
    pub slo_ms: u64,
    /// The attainment objective in `[0, 1)`.
    pub target: f64,
    /// Log lines read.
    pub lines: u64,
    /// Lines skipped as unparseable or missing required fields.
    pub skipped: u64,
    /// Data-plane answers scored (the attainment denominator).
    pub answered: u64,
    /// Answers that met the objective.
    pub good: u64,
    /// Admission refusals (excluded from scoring).
    pub refused: u64,
    /// Control-plane scrapes (excluded from scoring).
    pub ops: u64,
    /// Unparseable request lines the server refused (excluded).
    pub invalid: u64,
    /// Worst scored latency seen, microseconds.
    pub worst_us: u64,
    /// Scored answers by outcome (`ok`, `error`, `panic`, `deadline`).
    pub by_outcome: BTreeMap<String, u64>,
}

impl SloReport {
    /// `good / answered`; a log with nothing scored attains 1.0.
    pub fn attainment(&self) -> f64 {
        if self.answered == 0 {
            1.0
        } else {
            self.good as f64 / self.answered as f64
        }
    }

    /// Error-budget burn rate against `target` (1.0 = exactly
    /// sustainable).
    pub fn burn_rate(&self) -> f64 {
        (1.0 - self.attainment()) / (1.0 - self.target).max(1e-9)
    }

    /// Whether the log misses the objective.
    pub fn breached(&self) -> bool {
        self.attainment() < self.target
    }
}

fn get_u64(obj: &Value, key: &str) -> Option<u64> {
    match obj.field(key)? {
        Value::Number(n) => n.as_u64(),
        _ => None,
    }
}

fn get_str<'v>(obj: &'v Value, key: &str) -> Option<&'v str> {
    match obj.field(key)? {
        Value::String(s) => Some(s.as_str()),
        _ => None,
    }
}

/// Score an access log (the file's text) against the objective.
pub fn audit(log_text: &str, slo_ms: u64, target: f64) -> SloReport {
    let mut report = SloReport {
        slo_ms,
        target,
        lines: 0,
        skipped: 0,
        answered: 0,
        good: 0,
        refused: 0,
        ops: 0,
        invalid: 0,
        worst_us: 0,
        by_outcome: BTreeMap::new(),
    };
    for line in log_text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        report.lines += 1;
        let Ok(obj) = serde_json::from_str::<Value>(line) else {
            report.skipped += 1;
            continue;
        };
        let (Some(kind), Some(outcome)) = (get_str(&obj, "kind"), get_str(&obj, "outcome"))
        else {
            report.skipped += 1;
            continue;
        };
        match kind {
            "ops" => {
                report.ops += 1;
                continue;
            }
            "invalid" => {
                report.invalid += 1;
                continue;
            }
            _ => {}
        }
        if outcome == "overloaded" || outcome == "draining" {
            report.refused += 1;
            continue;
        }
        let (Some(wait), Some(exec)) =
            (get_u64(&obj, "queue_wait_us"), get_u64(&obj, "exec_us"))
        else {
            report.skipped += 1;
            continue;
        };
        let latency_us = wait.saturating_add(exec);
        report.answered += 1;
        report.worst_us = report.worst_us.max(latency_us);
        *report.by_outcome.entry(outcome.to_string()).or_insert(0) += 1;
        if outcome == "ok" && latency_us <= slo_ms.saturating_mul(1_000) {
            report.good += 1;
        }
    }
    report
}

/// Render the audit as the report `mica-prof slo` prints.
pub fn render(report: &SloReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "SLO audit: {} lines ({} skipped), objective ok within {}ms at target {}\n",
        report.lines, report.skipped, report.slo_ms, report.target
    ));
    out.push_str(&format!(
        "  scored {} answers: {} good, worst latency {}us\n",
        report.answered, report.good, report.worst_us
    ));
    for (outcome, n) in &report.by_outcome {
        out.push_str(&format!("    {outcome}: {n}\n"));
    }
    out.push_str(&format!(
        "  excluded: {} refused, {} ops, {} invalid\n",
        report.refused, report.ops, report.invalid
    ));
    out.push_str(&format!(
        "  attainment {:.6}, burn rate {:.3}: {}\n",
        report.attainment(),
        report.burn_rate(),
        if report.breached() { "BREACH" } else { "within objective" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(kind: &str, outcome: &str, wait: u64, exec: u64) -> String {
        format!(
            "{{\"ts_us\":1,\"id\":\"q\",\"trace\":\"00000000000000aa\",\"kind\":\"{kind}\",\
             \"outcome\":\"{outcome}\",\"queue_wait_us\":{wait},\"exec_us\":{exec},\
             \"fuel\":0,\"deadline_slack_ms\":5}}"
        )
    }

    #[test]
    fn scores_only_data_plane_answers() {
        let log = [
            line("table", "ok", 100, 200),
            line("asm", "ok", 0, 2_000_000), // 2s: past a 1s objective
            line("asm", "deadline", 0, 500),
            line("zoo", "overloaded", 0, 0),
            line("ops", "ok", 0, 0),
            line("invalid", "error", 0, 0),
            "not json at all".to_string(),
        ]
        .join("\n");
        let report = audit(&log, 1_000, 0.99);
        assert_eq!(report.lines, 7);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.answered, 3);
        assert_eq!(report.good, 1);
        assert_eq!(report.refused, 1);
        assert_eq!(report.ops, 1);
        assert_eq!(report.invalid, 1);
        assert_eq!(report.worst_us, 2_000_000);
        assert_eq!(report.by_outcome.get("deadline"), Some(&1));
        assert!(report.breached());
        let text = render(&report);
        assert!(text.contains("BREACH"), "{text}");
    }

    #[test]
    fn empty_log_attains_perfectly() {
        let report = audit("", 1_000, 0.99);
        assert_eq!(report.attainment(), 1.0);
        assert_eq!(report.burn_rate(), 0.0);
        assert!(!report.breached());
    }

    #[test]
    fn tolerates_unknown_and_missing_fields() {
        // A future server adding fields must not break the audit; a line
        // missing what we need is skipped, not fatal.
        let log = "{\"kind\":\"table\",\"outcome\":\"ok\",\"queue_wait_us\":1,\
                   \"exec_us\":2,\"new_field\":true}\n{\"kind\":\"table\"}";
        let report = audit(log, 1_000, 0.5);
        assert_eq!(report.answered, 1);
        assert_eq!(report.good, 1);
        assert_eq!(report.skipped, 1);
        assert!(!report.breached());
    }
}
