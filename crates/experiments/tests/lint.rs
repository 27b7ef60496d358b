//! Workspace gate: the 122-kernel zoo must be free of `Error`-severity
//! static-verifier findings. This is the test-suite twin of the `mica-lint`
//! binary (same shared pass, same config).

use mica_experiments::lint::{findings_json, lint_all, JsonFinding};

#[test]
fn benchmark_table_is_error_clean() {
    let reports = lint_all();
    assert_eq!(reports.len(), mica_workloads::NUM_BENCHMARKS);
    let mut failures = Vec::new();
    for (name, report) in &reports {
        for finding in report.errors() {
            failures.push(format!("{name}: {}", finding.rendered()));
        }
    }
    assert!(
        failures.is_empty(),
        "{} error finding(s) across the zoo:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The `--json` artifact shape: one entry per finding, stable names, and
/// a lossless serialization round trip.
#[test]
fn findings_json_round_trips() {
    let reports = lint_all();
    let findings = findings_json(&reports);
    let total: usize = reports.iter().map(|(_, r)| r.findings.len()).sum();
    assert_eq!(findings.len(), total);
    for f in &findings {
        assert!(f.severity == "warn" || f.severity == "error", "{:?}", f.severity);
        assert!(!f.lint.is_empty() && !f.kernel.is_empty() && !f.disasm.is_empty());
    }
    let json = serde_json::to_string(&findings).expect("serializes");
    let back: Vec<JsonFinding> = serde_json::from_str(&json).expect("parses");
    assert_eq!(findings, back);
}

/// The zoo's full census, as `mica-lint --json` reports it: the 23
/// deliberate merge jumps (kept so taken unconditional jumps stay in the
/// characterized control mix) and nothing else. A memory lint that starts
/// firing, or a merge jump that disappears, changes this count.
#[test]
fn zoo_census_is_the_23_documented_merge_jumps() {
    let findings = findings_json(&lint_all());
    let off_census: Vec<&JsonFinding> = findings
        .iter()
        .filter(|f| f.lint != "jump-to-fallthrough" || f.severity != "warn")
        .collect();
    assert!(off_census.is_empty(), "{off_census:#?}");
    assert_eq!(findings.len(), 23);
}
