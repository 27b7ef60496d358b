//! Paper-scale pin: the committed `results/profiles.json` carries the
//! current profile fingerprint, and the three smallest table kernels,
//! profiled at the paper's budgets through MICA and both machine models,
//! reproduce their records in it byte for byte.

use mica_suite::experiments::profile::{profile_benchmark, profile_fingerprint, scaled_budget};
use mica_suite::experiments::results::ProfileSet;
use mica_suite::prelude::*;

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
