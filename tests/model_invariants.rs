//! Cross-model invariants of the timing models. Each follows from the
//! models' own rules, so a violation is a bug in a model:
//!
//! - EV56 IPC is at most 2 and EV67 IPC at most 4, their issue widths.
//! - ILP IPC does not fall from window 32 to 64 to 128 to 256. Each window
//!   is a multiple of the one before, and an instruction one window back
//!   has already waited for the instruction a window before it, so a wider
//!   window's constraint is never tighter.
//! - EV67 IPC is at most the idealized IPC at EV67's own window of 80. Both
//!   apply the same window rule, and EV67 only adds delay.
//!
//! The committed records are checked for the first two; fresh profiles of
//! every eighth table kernel, the repository benchmark's sample, for all
//! three.

use mica_suite::experiments::profile::profile_benchmark;
use mica_suite::experiments::results::{BenchRecord, ProfileSet};
use mica_suite::mica::{Category, IlpAnalyzer, METRICS};
use mica_suite::prelude::*;

/// Instructions per fresh profile: the budget floor of a scaled-down run.
const FRESH_BUDGET: u64 = 10_000;

/// The first two invariants' violations in `r`.
fn violations(r: &BenchRecord) -> Vec<String> {
    let mut out = Vec::new();
    if r.hpc.ipc_ev56 > 2.0 {
        out.push(format!("{}: EV56 IPC {} above 2", r.name, r.hpc.ipc_ev56));
    }
    if r.hpc.ipc_ev67 > 4.0 {
        out.push(format!("{}: EV67 IPC {} above 4", r.name, r.hpc.ipc_ev67));
    }
    let ilp: Vec<f64> = METRICS
        .iter()
        .zip(r.mica.values())
        .filter(|(m, _)| m.category == Category::Ilp)
        .map(|(_, &v)| v)
        .collect();
    assert_eq!(ilp.len(), 4, "{}: four ILP windows", r.name);
    if ilp.windows(2).any(|w| w[1] < w[0]) {
        out.push(format!("{}: ILP falls as the window grows: {ilp:?}", r.name));
    }
    out
}

#[test]
fn committed_records_respect_issue_widths_and_window_order() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/profiles.json");
    let text = std::fs::read_to_string(path).expect("committed profiles.json");
    let set: ProfileSet = serde_json::from_str(&text).expect("profiles.json parses");
    assert_eq!(set.records.len(), 122);
    let bad: Vec<String> = set.records.iter().flat_map(violations).collect();
    assert!(bad.is_empty(), "{bad:#?}");
}

#[test]
fn fresh_profiles_respect_issue_widths_window_order_and_ilp_80() {
    let table = benchmark_table();
    let mut bad = Vec::new();
    let mut checked = 0;
    for spec in table.iter().step_by(8) {
        let record = profile_benchmark(spec, FRESH_BUDGET).expect("kernel profiles");
        bad.extend(violations(&record));
        // The same instruction stream through an idealized window of 80.
        let mut ilp80 = IlpAnalyzer::with_windows(&[80]);
        spec.build_vm().expect("kernel builds").run(&mut ilp80, FRESH_BUDGET).expect("kernel runs");
        let ideal = ilp80.ipcs()[0];
        if record.hpc.ipc_ev67 > ideal {
            bad.push(format!("{}: EV67 IPC {} above ILP-80 {ideal}", record.name, record.hpc.ipc_ev67));
        }
        checked += 1;
    }
    assert_eq!(checked, 16, "every eighth of the 122 kernels");
    assert!(bad.is_empty(), "{bad:#?}");
}
